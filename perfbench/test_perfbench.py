"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import run
import spans
import workloads


@pytest.fixture(autouse=True)
def kvgeom_modules():
    """``run.setup`` imports kvgeom afresh; give later tests back the modules they imported."""
    saved = {n: m for n, m in sys.modules.items() if n == "kvgeom" or n.startswith("kvgeom.")}
    old = signal.signal(signal.SIGALRM, run._alarm)
    yield
    signal.signal(signal.SIGALRM, old)
    for n in [n for n in sys.modules if n == "kvgeom" or n.startswith("kvgeom.")]:
        del sys.modules[n]
    sys.modules.update(saved)


@pytest.mark.parametrize("workload", ["tensor_scaling", "transversal_elim"])
def test_generator_is_deterministic(workload):
    first = [c.text for c in workloads.block(workload, 5, 1)]
    assert first == [c.text for c in workloads.block(workload, 5, 1)]
    assert first != [c.text for c in workloads.block(workload, 6, 1)]


def test_golden_check_catches_one_byte_change():
    state = run.setup("corpus", run.GOLDEN_SEED)
    name = workloads.CORPUS[0]
    code, report = state.run(state.config(scenarios=(name,), seed=run.GOLDEN_SEED))
    assert run.verdict_ok(state, name, None, code, report)
    i = report.index('"details"') + len('"details": "')
    changed = report[:i] + chr(ord(report[i]) ^ 1) + report[i + 1 :]
    assert not run.verdict_ok(state, name, None, code, changed)


def test_other_seeds_check_statuses_only():
    state = run.setup("corpus", 7)
    name = "line_embeddings"
    code, report = state.run(state.config(scenarios=(name,), seed=7))
    assert run.verdict_ok(state, name, None, code, report)
    flipped = report.replace('"status": "pass"', '"status": "fail"', 1)
    assert not run.verdict_ok(state, name, None, code, flipped)


def test_timeout_fires_on_tiny_budget():
    state = run.setup("corpus", run.GOLDEN_SEED)
    t0 = time.perf_counter()
    outcome, wall, checks = run.run_op(state, "linear_dual_pair", None, 0.001)
    assert outcome == run.TIMEOUT and wall == 0.001 and checks == 0
    assert time.perf_counter() - t0 < 5
    # the next op under a normal budget is unaffected
    assert run.run_op(state, "linear_dual_pair", None, 10.0)[0] == run.OK


def _poly(*terms):
    """Dict polynomial from (coefficient, exponent vector) pairs."""
    return {tuple(m): Fraction(c) for c, m in terms}


def test_codazzi_evaluator_on_known_bivectors():
    x, y, one = (1, 0), (0, 1), (0, 0)
    kv = [[_poly((1, x)), {}], [{}, _poly((1, y))]]  # diag(x, y)
    T = workloads.codazzi_at(kv, (Fraction(3), Fraction(-5, 2)))
    assert all(v == 0 for plane in T for row in plane for v in row)
    not_kv = [[_poly((1, y)), {}], [{}, _poly((1, one))]]  # diag(y, 1)
    T = workloads.codazzi_at(not_kv, (Fraction(3), Fraction(-5, 2)))
    assert T[0][1][0] == -1  # the entry (1,2,1)
    assert T[1][0][0] == 1


def test_generated_answers_agree_with_kvgeom():
    state = run.setup("tensor_scaling", 3)
    small = [op for op in state.blocks[0] if op[1].name.endswith("-n2")]
    state_t = run.setup("transversal_elim", 3)
    small.append(state_t.blocks[0][0])
    assert {c.family for _, c in small} == {"diag_profile", "algebra_dual", "generic_quadratic", "line_3x3"}
    for scenario, case in small:
        assert run.run_op(state_t, scenario, case, 10.0)[0] == run.OK, case.name
    # a wrong expectation is caught
    scenario, case = small[0]
    wrong = workloads.Case(case.name, case.family, case.text, tuple(
        workloads.Check(c.kind, c.status, not c.negative) for c in case.checks))
    assert run.run_op(state_t, scenario, wrong, 10.0)[0] == run.WRONG


def test_traced_self_times_sum_to_op_wall():
    state = run.setup("corpus", run.GOLDEN_SEED)
    tracer = spans.Tracer()
    plain, traced = run.measure(state, 0.0, 1, tracer)
    assert len(traced) == len(workloads.CORPUS) and all(op.outcome == run.OK for op in traced)
    own = tracer.self_times()
    per_op = [0.0] * len(traced)
    for op_id, t in zip(tracer.op, own):
        per_op[op_id] += t
    for total, op in zip(per_op, traced):
        assert abs(total - op.wall) <= 0.05 * op.wall
    names = set(tracer.names)
    assert {"cli.run", "engine.run_scenario", "engine.oracle", "dsl.parse_scenario", "symexpr.poly_mul"} <= names
    # the wrappers are gone after the traced pass
    n = len(tracer)
    run.run_op(state, workloads.CORPUS[0], None, 10.0)
    assert len(tracer) == n


def test_timed_out_ops_are_left_out_of_per_layer_metrics():
    state = run.setup("corpus", run.GOLDEN_SEED)
    block = state.blocks[0]
    only_decided = spans.Tracer()
    decided = run.traced_ops(state, block, 10.0, only_decided, 0)
    with_timeouts = spans.Tracer()
    cut = run.traced_ops(state, block, 0.001, with_timeouts, 0)
    assert any(op.outcome == run.TIMEOUT for op in cut)
    cut += run.traced_ops(state, block, 10.0, with_timeouts, len(cut))
    want = run.per_layer(only_decided, decided, decided)
    got = run.per_layer(with_timeouts, cut, cut)
    for name in ("symexpr.poly_mul.calls", "symexpr.eval_at.calls", "symexpr.expr_new.calls", "engine.oracle.claims"):
        assert got[name] == want[name], name


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((run.ROOT / "BENCHMARK.json").read_text())["command"]
    args = ["--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, *cmd[1:], *args], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    state = run.setup("corpus", run.GOLDEN_SEED)
    tracer = spans.Tracer()
    plain, traced = run.measure(state, 0.0, 1, tracer)
    e2e = run.end_to_end(plain, [0.1])
    layer = run.per_layer(tracer, plain, traced)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    for group, got in (("end_to_end", e2e), ("per_layer", layer)):
        assert {m["name"]: m["unit"] for m in spec[group]} == {k: unit for k, (_, unit) in got.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
