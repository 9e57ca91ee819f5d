"""Check execution: symbolic verdicts, deterministic numeric cross-checks, reports.

Besides its verdict, a check may hand over zero claims: residuals that must
vanish but that no symbolic test decided (today the mixed lift residuals of
``lift_props``).  The oracle evaluates each claim at deterministic
pseudo-random rational points p/q with p in [-8, 8] and q in [1, 8], so in
[-8, 8]^n (fixed seed, configurable count).  A nonzero value at a non-pole
point, like an ``EngineInconsistency`` or ``ClosureFailure`` raised inside a
check, is an internal inconsistency: the check fails and the run exits 3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .checks import CHECKS, FAIL, PASS, POINTWISE_PASS, UNSUPPORTED, Witness
from .dsl import CheckDirective, CheckOutcome, Environment, Scenario
from .errors import (
    ClosureFailure,
    DegreeOverflow,
    EngineInconsistency,
    InvalidAlgebra,
    InvalidSubspace,
    NotCoisotropic,
    NotTransverse,
    PoleAtPoint,
    PreconditionViolated,
    ZeroDenominator,
)
from .symexpr import Expr, _rational_str, sample_point


@dataclass
class CheckRecord:
    """A rendered outcome, the claims left to the oracle, and any internal inconsistency."""

    outcome: CheckOutcome
    zero_claims: list[Expr] = field(default_factory=list)
    inconsistencies: list[str] = field(default_factory=list)


WITNESS_TRIES = 200


def _find_witness(residual: Expr, seed: int, tries: int = WITNESS_TRIES) -> Witness | None:
    """Deterministic search for a point where a nonzero residual does not vanish; None when no try finds one.

    A try at a pole, or at a point where the value would be too long to
    compute (``DegreeOverflow``), is skipped.
    """
    rng = random.Random(seed)
    variables = sorted(residual.variables())
    for _ in range(tries):
        point = dict(zip(variables, sample_point(rng, len(variables))))
        try:
            value = residual.eval_at(point)
        except (PoleAtPoint, DegreeOverflow):
            continue
        if value != 0:
            return Witness(tuple(_rational_str(point[v]) for v in variables), str(residual))
    return None


def _oracle_verify(record: CheckRecord, seed: int, samples: int) -> None:
    """Evaluate every zero claim at sample points; a nonzero value fails the check."""
    witnesses = [(idx, _find_witness(claim, seed, samples)) for idx, claim in enumerate(record.zero_claims)]
    disagreements = [f"claim {i}: must vanish but is nonzero at ({', '.join(w.point)})" for i, w in witnesses if w]
    if disagreements:
        record.inconsistencies.extend(disagreements)
        o = record.outcome
        details = o.details + " | ORACLE DISAGREEMENT: " + "; ".join(disagreements)
        record.outcome = CheckOutcome(o.name, o.kind, FAIL, o.witness, details)


@dataclass(frozen=True)
class RunConfig:
    scenarios: tuple[str, ...] = ()  # paths or built-in corpus names
    format: str = "json"
    seed: int = 42
    samples: int = 20
    fail_fast: bool = False

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


def run_check(env: Environment, check: CheckDirective, seed: int, samples: int) -> CheckRecord:
    """Run one check; ``samples`` is the run's default, which the check's own option overrides."""
    name = ",".join(check.args)
    kind = check.kind
    samples = check.options.samples or samples
    try:
        status, details, witness_expr, claims = CHECKS[kind].run(env, check, seed, samples)
    except (
        PreconditionViolated, NotCoisotropic, InvalidAlgebra, InvalidSubspace, NotTransverse, ZeroDenominator,
        PoleAtPoint, DegreeOverflow,
    ) as exc:
        outcome = CheckOutcome(name, kind, UNSUPPORTED, None, str(exc))
        return CheckRecord(outcome)
    except (EngineInconsistency, ClosureFailure) as exc:
        message = f"{type(exc).__name__}: {exc}"
        outcome = CheckOutcome(name, kind, FAIL, None, f"ENGINE INCONSISTENCY: {message}")
        return CheckRecord(outcome, inconsistencies=[message])

    expected = check.options.expect or "pass"
    passed = status in (PASS, POINTWISE_PASS)
    if expected == "fail":
        if passed:
            status = FAIL
            details = f"expected failure but the check passed; {details}"
            witness_expr = None
        else:
            status = PASS
            details = f"failed as expected; {details}"

    witness = None
    if witness_expr is not None and (status == FAIL or (expected == "fail" and status == PASS)):
        if isinstance(witness_expr, Witness):
            witness = witness_expr
        else:
            witness = _find_witness(witness_expr, seed)
            if witness is None:
                details = f"{details}; no witness found in {WITNESS_TRIES} tries"

    outcome = CheckOutcome(name, kind, status, witness, details)
    return CheckRecord(outcome, claims)


@dataclass
class RunResult:
    records: list[CheckRecord]

    @property
    def outcomes(self) -> list[CheckOutcome]:
        return [r.outcome for r in self.records]

    @property
    def any_failure(self) -> bool:
        return any(r.outcome.status in (FAIL, UNSUPPORTED) for r in self.records)

    @property
    def any_inconsistency(self) -> bool:
        return any(r.inconsistencies for r in self.records)

    @property
    def exit_code(self) -> int:
        if self.any_inconsistency:
            return 3
        if self.any_failure:
            return 1
        return 0


def run_scenario(
    scenario: Scenario,
    seed: int = 42,
    samples: int = 20,
    fail_fast: bool = False,
    check_offset: int = 0,
) -> RunResult:
    """Execute a parsed scenario's checks in order, in the environment it was bound to."""
    records: list[CheckRecord] = []
    for idx, check in enumerate(scenario.checks):
        record = run_check(scenario.env, check, seed * 1000003 + check_offset + idx, samples)
        _oracle_verify(record, seed * 7 + check_offset + idx, check.options.samples or samples)
        records.append(record)
        if fail_fast and record.outcome.status in (FAIL, UNSUPPORTED):
            break
    return RunResult(records)
