"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every verdict is exact (rational arithmetic); the stated time
budgets are asserted.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as Fr

from conftest import random_algebra, random_bivector, random_poly
from kvgeom import linalg
from kvgeom.algebra import AlgebraSpec, SubspaceSpec, algebra_to_kv, annihilator_submanifold
from kvgeom.cli import run
from kvgeom.corpus import BUILTIN_SCENARIOS
from kvgeom.dsl import parse_scenario, render_report, serialize
from kvgeom.engine import RunConfig, run_scenario
from kvgeom.errors import ParseError, SemanticError
from kvgeom.geometry import (
    Chart,
    ScalarField,
    SymBivector,
    in_E,
    is_kv,
    lie_derivative_h,
    lie_derivative_residual,
    special_class_check,
)
from kvgeom.structures import (
    SYMBOLIC_TRUE,
    AffineMap,
    AffineSubmanifold,
    conormal_algebroid,
    graph_check,
    is_coisotropic,
    is_kv_map,
    is_kv_submanifold,
    is_transversal,
    product_kv,
    theorem1_equivalences,
)
from kvgeom.symexpr import Expr
from kvgeom.tangent import _jacobi_entries, build_pi

X_ = Expr.var("x")
Y_ = Expr.var("y")
M2 = Chart("M2", ("x", "y"))
H_DIAG = SymBivector.diagonal(M2, [X_, Y_])
H_SQ = SymBivector(M2, ((X_ ** 2, Expr.const(0)), (Expr.const(0), Expr.const(0))))


@contextmanager
def criterion(number: int, budget_s: float, label: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:>2}] FAIL  {label}")
        raise
    dt = time.monotonic() - t0
    assert dt < budget_s, f"criterion {number} exceeded its {budget_s}s budget ({dt:.2f}s)"
    print(f"[criterion {number:>2}] PASS  {label} ({dt:.2f}s)")


def test_criterion_01_codazzi_corpus():
    with criterion(1, 10.0, "Codazzi identity on named and generated K-V instances"):
        assert is_kv(H_DIAG)
        assert is_kv(H_SQ)
        rng = random.Random(101)
        for _ in range(50):
            a = random_algebra(rng, rng.randint(1, 4))
            assert is_kv(algebra_to_kv(a))


def test_criterion_02_lie_derivative_value_and_residual():
    with criterion(2, 10.0, "Hamiltonian Lie-derivative value and identity residual"):
        lie = lie_derivative_h(H_DIAG, ScalarField(M2, X_))
        assert lie.entries[0][0] == -X_
        rng = random.Random(102)
        instances = [algebra_to_kv(random_algebra(rng, rng.randint(1, 3))) for _ in range(10)]
        count = 0
        for h in instances:
            for _ in range(5):
                f = ScalarField(h.chart, random_poly(rng, h.chart.coords, 3, terms=4))
                res = lie_derivative_residual(h, f)
                assert all(e.is_zero() for row in res for e in row)
                count += 1
        assert count == 50


def test_criterion_03_kv_poisson_equivalence():
    with criterion(3, 30.0, "Codazzi verdict matches tangent-lift Jacobi verdict on 100 instances"):
        rng = random.Random(103)
        charts = [M2, Chart("C3", ("x", "y", "z"))]
        worked = [H_DIAG, H_SQ, SymBivector.zero(M2), SymBivector.standard(charts[1])]
        instances = list(worked)
        while len(instances) < 104:
            instances.append(random_bivector(rng, charts[len(instances) % 2], 2))
        for h in instances[:104]:
            assert is_kv(h) == all(s.is_zero() for _, s in _jacobi_entries(build_pi(h)))


def _map_instances():
    """Deterministic list of 30 (map, h1, h2) triples between K-V structures."""
    L = Chart("L", ("t",))
    P = Chart("P", ("x", "y"))
    h_line = SymBivector(L, ((Expr.var("t") ** 2,),))
    h_diag_sq = SymBivector.diagonal(P, [X_ ** 2, Y_ ** 2])
    triples = []
    expected_true = []
    for lam, mu in ((1, 0), (0, 1), (1, 1), (2, 3)):
        f = AffineMap(L, P, ((Fr(lam),), (Fr(mu),)), (Fr(0), Fr(0)))
        triples.append((f, h_line, h_diag_sq))
        expected_true.append(lam == 0 or mu == 0)

    rng = random.Random(104)
    duals = [algebra_to_kv(random_algebra(rng, d), None) for d in (1, 2, 2, 3)]
    # identity maps are always K-V
    for h in duals[:2]:
        triples.append((AffineMap.identity(h.chart), h, h))
        expected_true.append(True)
    # product projections are K-V
    for ha, hb in ((duals[0], duals[1]), (duals[2], duals[0])):
        prod = product_kv(ha, hb)
        triples.append((prod.proj1, prod.bivector, ha))
        expected_true.append(True)
        triples.append((prod.proj2, prod.bivector, hb))
        expected_true.append(True)
    # the constant map to the origin of a linear dual (no cocycle) is K-V
    zero_cocycle = algebra_to_kv(AlgebraSpec.from_sparse(2, {(0, 0, 0): 1}))
    const = AffineMap(
        M2, zero_cocycle.chart, ((Fr(0), Fr(0)), (Fr(0), Fr(0))), (Fr(0), Fr(0))
    )
    triples.append((const, H_DIAG, zero_cocycle))
    expected_true.append(True)

    while len(triples) < 30:
        h1 = duals[rng.randint(0, len(duals) - 1)]
        h2 = duals[rng.randint(0, len(duals) - 1)]
        m, n = h2.chart.dim, h1.chart.dim
        matrix = tuple(tuple(Fr(rng.randint(-2, 2)) for _ in range(n)) for _ in range(m))
        offset = tuple(Fr(rng.randint(-1, 1)) for _ in range(m))
        triples.append((AffineMap(h1.chart, h2.chart, matrix, offset), h1, h2))
        expected_true.append(None)  # verdict unconstrained, only agreement matters
    return triples, expected_true


def test_criterion_04_theorem_four_way_agreement():
    with criterion(4, 30.0, "four K-V map characterizations agree on 30 instances"):
        triples, expected = _map_instances()
        assert len(triples) == 30
        for (f, h1, h2), want in zip(triples, expected):
            rep = theorem1_equivalences(f, h1, h2)
            assert rep.agree
            if want is not None:
                assert rep.direct is want


def test_criterion_05_submanifold_criteria():
    with criterion(5, 10.0, "K-V submanifold criteria and induced structures"):
        for m, k in ((3, 1), (4, 2)):
            chart = Chart(f"R{m}", tuple(f"x{i + 1}" for i in range(m)))
            xs = [Expr.var(c) for c in chart.coords]
            h = SymBivector(chart, tuple(tuple(xs[i] * xs[j] for j in range(m)) for i in range(m)))
            n_sub = AffineSubmanifold(
                chart,
                tuple(Fr(0) for _ in range(m)),
                tuple(tuple(Fr(1 if i == j else 0) for j in range(m)) for i in range(m - k)),
            )
            res = is_kv_submanifold(n_sub, h)
            assert res.ok
            ys = [Expr.var(c) for c in res.induced.chart.coords]
            for i in range(m - k):
                for j in range(m - k):
                    assert res.induced.entries[i][j] == ys[i] * ys[j]
        axis = AffineSubmanifold(M2, (0, 0), ((1, 0),))
        good = SymBivector.diagonal(M2, [X_ ** 2, Y_])
        bad = SymBivector.diagonal(M2, [X_ ** 2, Expr.const(1)])
        res_good = is_kv_submanifold(axis, good)
        assert res_good.ok
        assert res_good.induced.entries[0][0] == Expr.var("y1") ** 2
        assert not is_kv_submanifold(axis, bad).ok


def test_criterion_06_transversal_schur_structure():
    with criterion(6, 10.0, "fibers of affine surjections under the standard structure"):
        R3 = Chart("R3", ("x1", "x2", "x3"))
        h = SymBivector.standard(R3)
        fibers = [
            AffineSubmanifold(R3, (0, 0, 0), ((1, -1, 0), (1, 1, -2))),  # sum-map fiber
            AffineSubmanifold(R3, (Fr(1), 0, 0), ((0, 1, 0), (0, 0, 1))),  # coordinate fiber
            AffineSubmanifold(R3, (0, 0, 0), ((2, 1, 0), (0, 1, -1))),  # skew surjection fiber
        ]
        for fiber in fibers:
            res = is_transversal(fiber, h)
            assert res.verdict == SYMBOLIC_TRUE
            # independent oracle: the induced structure must invert the basis Gram matrix
            gram = [
                [sum(a * b for a, b in zip(u, v)) for v in fiber.basis] for u in fiber.basis
            ]
            expected = linalg.inverse(gram)
            k = fiber.dim
            for i in range(k):
                for j in range(k):
                    assert res.induced.entries[i][j] == Expr.const(expected[i][j])


def test_criterion_07_coisotropy_and_conormal_algebroid():
    with criterion(7, 10.0, "annihilator submanifolds and the conormal product"):
        alg = AlgebraSpec.from_sparse(2, {(0, 0, 0): 1})
        h = algebra_to_kv(alg)
        sub = SubspaceSpec(alg, ((Fr(1), Fr(0)),), "subalgebra")
        n_sub = annihilator_submanifold(sub, h.chart)
        assert is_coisotropic(n_sub, h)
        conormal = conormal_algebroid(n_sub, h)
        assert conormal.left_symmetric_ok
        assert conormal.fiber_commutative and conormal.fiber_associative
        ideal = SubspaceSpec(alg, ((Fr(0), Fr(1)),), "ideal")
        n_ideal = annihilator_submanifold(ideal, h.chart)
        assert is_kv_submanifold(n_ideal, h).ok


def test_criterion_08_graph_characterization():
    with criterion(8, 30.0, "graph coisotropy matches the K-V map verdict on 30 instances"):
        triples, _ = _map_instances()
        for f, h1, h2 in triples:
            rep = graph_check(f, h1, h2)
            assert rep.agree
            assert rep.kv_map == is_kv_map(f, h1, h2)


def test_criterion_09_leafwise_affine_space_and_special_class():
    with criterion(9, 10.0, "leafwise-affine membership and the closed-pairing class"):
        h_line = SymBivector(M2, ((X_, Expr.const(0)), (Expr.const(0), Expr.const(0))))
        rng = random.Random(109)
        for _ in range(10):
            f = ScalarField(M2, random_poly(rng, ("y",), 3, terms=4))
            assert in_E(h_line, f)
        assert in_E(H_SQ, ScalarField(M2, X_))
        assert not in_E(H_SQ, ScalarField(M2, X_ ** 2))
        assert not special_class_check(H_SQ, ScalarField(M2, X_), ScalarField(M2, X_))
        for _ in range(10):
            a = random_algebra(rng, rng.randint(1, 3))
            h = algebra_to_kv(a)
            chart = h.chart
            tested = 0
            attempts = 0
            while tested < 3 and attempts < 40:
                attempts += 1
                f1 = ScalarField(chart, random_poly(rng, chart.coords, 2, terms=3))
                f2 = ScalarField(chart, random_poly(rng, chart.coords, 2, terms=3))
                if not (in_E(h, f1) and in_E(h, f2)):
                    continue
                assert special_class_check(h, f1, f2)
                tested += 1
            assert tested > 0


def test_criterion_10_oracle_coherence_across_corpus():
    with criterion(10, 60.0, "numeric oracle agrees with every zero claim across the corpus"):
        for name, entry in BUILTIN_SCENARIOS.items():
            res = run_scenario(parse_scenario(entry.text), seed=42, samples=20)
            assert not res.any_inconsistency, name
            assert res.exit_code == 0, name


def test_criterion_11_dsl_robustness():
    with criterion(11, 30.0, "round trips, positioned errors, byte-identical reports"):
        from test_dsl import _random_scenario

        rng = random.Random(111)
        for _ in range(100):
            s = _random_scenario(rng)
            assert parse_scenario(serialize(s)) == s
        malformed = [
            "manifold M {",
            "bivector h on M { [x, ; y] }",
            "check",
            "manifold M { dim 2 coords [x y] } bivector h on M { [0, 1; 2, 0] }",
            "map F : A -> B",
        ]
        for text in malformed:
            try:
                parse_scenario(text)
                raise AssertionError(f"no error for {text!r}")
            except (ParseError, SemanticError) as exc:
                assert exc.line >= 1 and exc.column >= 1
        cfg = RunConfig(scenarios=("worked_examples",), format="json")
        first = run(cfg)
        second = run(cfg)
        assert first == second
        code, report = first
        assert code == 0
        parsed = json.loads(report)
        assert render_report
        assert parsed["checks"]
