"""kvgeom benchmark: seeded workloads run in-process through ``kvgeom.cli.run``.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

One client in one process sends ops in a closed loop: the next op starts when
the previous one has returned.  An op is one ``cli.run`` call on one scenario,
in JSON format.  Ops come in blocks (see ``workloads.py``) and a run measures
whole blocks until ``--seconds`` have passed and at least ``MIN_OPS`` ops ran.
Every report is checked against an answer kvgeom did not compute: the golden
reports under ``golden/`` for the corpus, the ``Fraction`` evaluators of
``workloads.py`` for generated scenarios.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` each block runs twice, untraced and
then traced (``spans.py``), and the JSON holds the per-layer metrics; the
spans are written to ``.perfbench_work/spans-<workload>.bin``.

Op and set-up times are reported at reference speed: a fixed calibration
kernel that does not touch kvgeom runs before each untraced op, and each
block's times are scaled by the kernel's reference time over its median time
in that block.  This takes out the drift of a shared machine's speed, which
is larger than any bound, and leaves the cost of kvgeom's code.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden"
# bytecode is written to and read from the work directory only, whatever the
# environment or the checkout's own __pycache__ say, so after the warm-up set-up
# every timed import loads it the same way
sys.pycache_prefix = str(WORK / "pycache")
sys.dont_write_bytecode = False

import argparse
import gc
import importlib
import json
import random
import resource
import signal
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import spans
import workloads

GOLDEN_SEED = 42

WORKLOADS = ("corpus", "tensor_scaling", "transversal_elim")
# per-op budget: every case decides in under a third of it, or needs over three times it
BUDGET_S = {"corpus": 10.0, "tensor_scaling": 10.0, "transversal_elim": 2.0}
BLOCKS = 8  # generated blocks per run; a longer run starts over at block 0
SETUP_REPEATS = 7
MIN_OPS = 100  # p90 needs ten samples beyond it
MAX_MEASURE_S = 140.0  # stop early rather than pass the 180 s limit of a run

OK, WRONG, ERROR, TIMEOUT = "ok", "wrong", "error", "timeout"


class OpTimeout(BaseException):
    """Raised by SIGALRM in the main thread when an op passes its budget.

    A ``BaseException``, so that no ``except Exception`` inside kvgeom
    can swallow it.
    """


def _alarm(signum, frame):
    raise OpTimeout


# --- machine speed --------------------------------------------------------------------

# the calibration kernel mixes the kinds of work kvgeom does: Fraction
# arithmetic on polynomial dicts, integer dict products and JSON text
_CAL_RNG = random.Random("calibration")
_CAL_H = workloads.generic_quadratic(_CAL_RNG, 4, 3)
_CAL_POINT = tuple(workloads._rat(_CAL_RNG, 2) for _ in range(4))
_CAL_A = {(i, j, k): _CAL_RNG.randint(-9, 9) for i in range(4) for j in range(4) for k in range(3)}
_CAL_B = list(_CAL_A.items())[:40]
_CAL_DOC = {"checks": [{"kind": "codazzi", "status": "pass", "details": f"claim {i} " * 8, "at": [i, i / 4]} for i in range(60)]}
CAL_REF_S = 0.0030  # the kernel's median time on the reference machine (README) when quiet


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes now."""
    t0 = perf_counter()
    workloads.codazzi_at(_CAL_H, _CAL_POINT)
    prod: dict = {}
    for ea, ca in _CAL_A.items():
        for eb, cb in _CAL_B:
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            prod[e] = prod.get(e, 0) + ca * cb
    for _ in range(3):
        json.loads(json.dumps(_CAL_DOC, indent=2))
    return perf_counter() - t0


# --- inputs ---------------------------------------------------------------------------


@dataclass
class State:
    """Everything a run needs once set up: kvgeom's entry point and the ops' inputs."""

    workload: str
    seed: int
    run: object  # kvgeom.cli.run
    config: type  # kvgeom.engine.RunConfig
    blocks: list[list]  # per block, the (scenario, case) of each op
    goldens: dict[str, str] = field(default_factory=dict)


def import_kvgeom():
    """Import kvgeom from this checkout's ``src``, afresh each time."""
    for name in [n for n in sys.modules if n == "kvgeom" or n.startswith("kvgeom.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    cli = importlib.import_module("kvgeom.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "kvgeom").resolve():
        raise ImportError(f"kvgeom imported from {cli.__file__}, not from {SRC}")
    return cli


def load_goldens() -> dict[str, str]:
    return {name: (GOLDEN / f"{name}.json").read_text(encoding="utf-8") for name in workloads.CORPUS}


def setup(workload: str, seed: int) -> State:
    """Import kvgeom, generate the workload's inputs and write them as .kvs files."""
    cli = import_kvgeom()
    config = sys.modules["kvgeom.engine"].RunConfig
    if workload == "corpus":
        blocks = [[(name, None) for name in workloads.CORPUS]]
        return State(workload, seed, cli.run, config, blocks, load_goldens())
    out = WORK / workload
    out.mkdir(parents=True, exist_ok=True)
    blocks = []
    for b in range(BLOCKS):
        ops = []
        for case in workloads.block(workload, seed, b):
            path = out / f"{case.name}.kvs"
            path.write_text(case.text, encoding="utf-8")
            ops.append((str(path), case))
        blocks.append(ops)
    return State(workload, seed, cli.run, config, blocks)


# --- one op ---------------------------------------------------------------------------


def statuses(report: str) -> list[str]:
    return [c["status"] for c in json.loads(report)["checks"]]


def verdict_ok(state: State, scenario: str, case, code: int, report: str) -> bool:
    """Does the report agree with the answer known without kvgeom?"""
    if code != 0:
        return False
    if case is None:  # corpus entry
        golden = state.goldens[scenario]
        if state.seed == GOLDEN_SEED:
            return report == golden
        return statuses(report) == statuses(golden)
    checks = json.loads(report)["checks"]
    return len(checks) == len(case.checks) and all(
        got["kind"] == want.kind
        and got["status"] == want.status
        and got["details"].startswith("failed as expected") == want.negative
        for got, want in zip(checks, case.checks)
    )


def run_op(state: State, scenario: str, case, budget: float) -> tuple[str, float, int]:
    """One op under its budget: (outcome, wall seconds, checks decided).

    A timed-out op counts at its budget.
    """
    cfg = state.config(scenarios=(scenario,), seed=state.seed)
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            code, report = state.run(cfg)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return TIMEOUT, budget, 0
    except Exception as exc:  # a traceback out of kvgeom fails the op
        print(f"error: {scenario}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return ERROR, perf_counter() - t0, 0
    wall = perf_counter() - t0
    if not verdict_ok(state, scenario, case, code, report):
        print(f"wrong: {scenario}: exit {code}", file=sys.stderr)
        return WRONG, wall, 0
    return OK, wall, len(json.loads(report)["checks"])


# --- runs -----------------------------------------------------------------------------


@dataclass
class Op:
    outcome: str
    wall: float  # seconds on the clock, a timeout at its budget
    time: float  # the same at reference speed, a timeout still at its budget
    checks: int


def timed_block(state: State, block, budget: float) -> list[Op]:
    """Untraced ops, each after a calibration; times scaled by the block's speed.

    A timed-out op counts at its budget, whatever the speed.
    """
    raw, cal = [], []
    for scenario, case in block:
        cal.append(calibrate())
        raw.append(run_op(state, scenario, case, budget))
    scale = CAL_REF_S / statistics.median(cal)
    return [Op(outcome, wall, wall if outcome == TIMEOUT else wall * scale, checks) for outcome, wall, checks in raw]


def measure(state: State, seconds: float, min_ops: int, tracer: spans.Tracer | None = None):
    """Whole blocks in a closed loop until ``seconds`` passed and ``min_ops`` ran.

    With a tracer, each block runs both untraced and traced, the two passes
    taking turns to go first; returns (untraced ops, traced ops).
    """
    budget = BUDGET_S[state.workload]
    plain: list[Op] = []
    traced: list[Op] = []
    gc.collect()
    t_start = perf_counter()
    b = 0
    while True:
        block = state.blocks[b % len(state.blocks)]
        traced_first = tracer is not None and b % 2 == 1
        b += 1
        if traced_first:
            traced.extend(traced_ops(state, block, budget, tracer, len(traced)))
        plain.extend(timed_block(state, block, budget))
        if tracer is not None and not traced_first:
            traced.extend(traced_ops(state, block, budget, tracer, len(traced)))
        elapsed = perf_counter() - t_start
        if (elapsed >= seconds and len(plain) >= min_ops) or elapsed >= MAX_MEASURE_S:
            return plain, traced


def traced_ops(state: State, block, budget: float, tracer: spans.Tracer, first_id: int) -> list[Op]:
    """Run a block with kvgeom wrapped; each op is a root span with its own op id."""
    ops = []
    inst = spans.install(tracer)
    root = tracer.name_id(spans.ROOT)
    try:
        for scenario, case in block:
            first = len(tracer)
            tracer.begin_op(first_id + len(ops))
            idx = tracer.open(root)
            try:
                outcome, wall, checks = run_op(state, scenario, case, budget)
                ops.append(Op(outcome, wall, wall, checks))
            finally:
                tracer.close(idx)
                tracer.end_op(first, perf_counter())
    finally:
        inst.remove()
    return ops


def timed_setups(workload: str, seed: int) -> tuple[State, list[float]]:
    """One untimed warm-up set-up, then ``SETUP_REPEATS`` timed ones at reference speed."""
    state = setup(workload, seed)
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = perf_counter()
        state = setup(workload, seed)
        t = perf_counter() - t0
        times.append(t * CAL_REF_S / statistics.median((before, calibrate(), calibrate())))
    return state, times


def end_to_end(ops: list[Op], setup_times: list[float]) -> dict:
    times = [op.time for op in ops]
    decided = sum(op.outcome == OK for op in ops)
    return {
        "checks_per_s": (sum(op.checks for op in ops) / sum(times), "checks/s"),
        "op_p50_ms": (statistics.median(times) * 1000, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[8] * 1000, "ms"),
        "decided_share": (decided / len(ops), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


SELF_MS = (
    "symexpr.poly_gcd",
    "symexpr.divexact",
    "symexpr.poly_mul",
    "symexpr.substitute",
    "geometry.codazzi_tensor",
    "geometry.kv_bracket_form",
    "geometry.hessian_contraction",
    "geometry.lie_derivative_h",
    "tangent.build_pi",
    "tangent.schouten_jacobi",
    "tangent.lift_propositions_check",
    "structures.to_adapted_bivector",
    "structures.expr_det",
    "structures.expr_inverse",
    "structures.is_transversal",
    "structures.kv_map_residuals",
    "structures.theorem1_equivalences",
    "structures.graph_check",
    "engine.run_scenario",
    "engine.oracle",
    "engine.witness",
    "dsl.parse_scenario",
    "dsl.bind_scenario",
    "dsl.render_report",
)
CALLS = ("symexpr.poly_gcd", "symexpr.divexact", "symexpr.poly_mul", "symexpr.eval_at")


def decided(ops: list[Op]) -> set[int]:
    """Ids of the traced ops that decided; a timed-out op's spans are cut off by its budget."""
    return {i for i, op in enumerate(ops) if op.outcome == OK}


def layer_totals(tracer: spans.Tracer, keep: set[int]) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and call counts per span name, over the spans of the ops in ``keep``."""
    own = tracer.self_times()
    self_s = dict.fromkeys(tracer.names, 0.0)
    calls = dict.fromkeys(tracer.names, 0)
    for nid, op, t in zip(tracer.name, tracer.op, own):
        if op in keep:
            name = tracer.names[nid]
            self_s[name] += t
            calls[name] += 1
    return self_s, calls


def per_layer(tracer: spans.Tracer, plain: list[Op], traced: list[Op]) -> dict:
    """Per-layer metrics over the traced ops that decided, per such op."""
    keep = decided(traced)
    self_s, calls = layer_totals(tracer, keep)
    n_ops = max(len(keep), 1)
    out = {}
    for name in SELF_MS:
        out[f"{name}.self_ms"] = (self_s.get(name, 0.0) * 1000 / n_ops, "ms/op")
    for name in CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0) / n_ops, "calls/op")
    for layer in ("linalg", "algebra"):
        total = sum(t for name, t in self_s.items() if name.startswith(layer + "."))
        out[f"{layer}.self_ms"] = (total * 1000 / n_ops, "ms/op")
    gcds = calls.get("symexpr.poly_gcd", 0)
    useful = sum(tracer.gcd_useful[i] for i in keep)
    out["symexpr.poly_gcd.useful_ratio"] = (useful / gcds if gcds else 0.0, "ratio")
    out["symexpr.max_terms"] = (max((tracer.max_terms[i] for i in keep), default=0), "terms")
    out["symexpr.expr_new.calls"] = (sum(tracer.expr_new[i] for i in keep) / n_ops, "calls/op")
    out["engine.oracle.claims"] = (sum(tracer.oracle_claims[i] for i in keep) / n_ops, "claims/op")
    both = [(p.wall, t.wall) for p, t in zip(plain, traced) if p.outcome == OK and t.outcome == OK]
    ratio = sum(t for _, t in both) / sum(p for p, _ in both) if both else 0.0
    out["trace.overhead_ratio"] = (ratio, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "kvgeom" / "__init__.py").is_file():
        print(f"error: no kvgeom sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _alarm)
    state, setup_times = timed_setups(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    plain, traced = measure(state, args.seconds, 1 if args.trace else MIN_OPS, tracer)
    ops = plain + traced
    bad = sum(op.outcome in (WRONG, ERROR) for op in ops)
    if tracer is None:
        metrics = end_to_end(plain, setup_times)
    else:
        metrics = per_layer(tracer, plain, traced)
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{args.workload}.bin")
        keep = decided(traced)
        self_s, _ = layer_totals(tracer, keep)
        top = sorted(self_s.items(), key=lambda kv: -kv[1])[:6]
        print("largest self times: " + ", ".join(f"{n} {t * 1000 / max(len(keep), 1):.2f} ms/op" for n, t in top))

    timeouts = sum(op.outcome == TIMEOUT for op in plain)
    speed = statistics.median(op.time / op.wall for op in plain if op.outcome != TIMEOUT)
    print(
        f"{args.workload} seed={args.seed}: {len(plain)} ops "
        f"({timeouts} timed out at {BUDGET_S[args.workload]:g} s, {bad} wrong or failed), "
        f"machine at {speed:.2f} of reference speed"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    result = {
        "correct": bad == 0,
        "attempted": len(ops),
        "failed": bad,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
