"""In-memory span tracing of kvgeom, installed from outside the package.

``install`` rebinds kvgeom functions to thin wrappers that record one span
per call: name, start, end, parent span and op id.  Spans stay in parallel
arrays until the run ends; ``write`` then dumps them in one go.

Where spans are recorded:

* ``poly_gcd``, ``engine._oracle_verify`` (span ``engine.oracle``), every
  function in ``NAMED`` and every public function of ``kvgeom.linalg`` and
  ``kvgeom.algebra``, in every kvgeom module that binds it (``from ...
  import`` copies a binding into the importing module);
* every other public function of a layer module where another kvgeom module
  binds it, i.e. at a call that crosses a module boundary;
* the ``Poly.__mul__``, ``Expr.substitute`` and ``Expr.eval_at`` methods;
  ``Expr.__init__`` is counted, not spanned.

``poly_gcd`` is recursive; only the outermost call is a span, and it is a
leaf: the products and exact divisions it makes internally belong to its
own self time and are not counted as ``poly_mul`` or ``divexact`` calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("symexpr", "geometry", "tangent", "structures", "engine", "dsl", "linalg", "algebra")

# wrapped in every module that binds them, under the span name of the same key
# unless renamed below
NAMED = frozenset({
    "symexpr.divexact",
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
    "engine._find_witness",
    "dsl.parse_scenario",
    "dsl.bind_scenario",
    "dsl.render_report",
})
RENAMED = {"engine._find_witness": "engine.witness"}

ROOT = "cli.run"


class Tracer:
    """Spans of one process, in parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.in_gcd = False
        # per op id
        self.gcd_useful: defaultdict[int, int] = defaultdict(int)
        self.max_terms: defaultdict[int, int] = defaultdict(int)
        self.expr_new: defaultdict[int, int] = defaultdict(int)
        self.oracle_claims: defaultdict[int, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.stack.clear()
        self.in_gcd = False

    def end_op(self, first: int, t_end: float) -> None:
        """After an op that may have been interrupted: drop a half-recorded
        span and close every span left open at ``t_end``."""
        n = min(len(a) for a in (self.start, self.end, self.name, self.parent, self.op))
        for a in (self.start, self.end, self.name, self.parent, self.op):
            del a[n:]
        for i in range(first, n):
            if self.end[i] == 0.0:
                self.end[i] = t_end
        self.stack.clear()
        self.in_gcd = False

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> array:
        """Span duration minus the time its direct children cover."""
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        own = array("d", dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "count": len(self), "arrays": ["start", "end", "name", "parent", "op"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in (self.start, self.end, self.name, self.parent, self.op):
                a.tofile(fh)


def _span(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.in_gcd:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def _gcd_span(tracer: Tracer, fn):
    nid = tracer.name_id("symexpr.poly_gcd")

    @functools.wraps(fn)
    def traced(a, b):
        if tracer.in_gcd:
            return fn(a, b)
        op = tracer.op_id
        tracer.max_terms[op] = max(tracer.max_terms[op], len(a.terms), len(b.terms))
        tracer.in_gcd = True
        idx = tracer.open(nid)
        try:
            g = fn(a, b)
        finally:
            tracer.close(idx)
            tracer.in_gcd = False
        if not (g.is_const() and g.const_value() == 1):
            tracer.gcd_useful[op] += 1
        return g

    return traced


def _oracle_span(tracer: Tracer, fn):
    traced = _span(tracer, "engine.oracle", fn)

    @functools.wraps(fn)
    def counted(record, *args, **kwargs):
        tracer.oracle_claims[tracer.op_id] += len(record.zero_claims)
        return traced(record, *args, **kwargs)

    return counted


def _counted_init(tracer: Tracer, fn):
    @functools.wraps(fn)
    def init(self, *args, **kwargs):
        tracer.expr_new[tracer.op_id] += 1
        fn(self, *args, **kwargs)

    return init


class Installation:
    """Wrappers bound into kvgeom; ``remove`` restores every original."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _kvgeom_modules() -> dict[str, object]:
    return {n: m for n, m in sys.modules.items() if n == "kvgeom" or n.startswith("kvgeom.")}


def install(tracer: Tracer) -> Installation:
    """Wrap kvgeom (already imported) so that its calls record spans in ``tracer``."""
    mods = _kvgeom_modules()
    inst = Installation()
    wrapped: dict[int, tuple[object, bool]] = {}  # id(fn) -> (wrapper, also in its home module)
    for layer in LAYERS:
        mod = mods[f"kvgeom.{layer}"]
        for attr, fn in vars(mod).items():
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            key = f"{layer}.{attr}"
            if key == "symexpr.poly_gcd":
                wrapped[id(fn)] = (_gcd_span(tracer, fn), True)
            elif key == "engine._oracle_verify":
                wrapped[id(fn)] = (_oracle_span(tracer, fn), True)
            elif key in NAMED:
                wrapped[id(fn)] = (_span(tracer, RENAMED.get(key, key), fn), True)
            elif not attr.startswith("_"):
                wrapped[id(fn)] = (_span(tracer, key, fn), layer in ("linalg", "algebra"))
    for mname, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if inspect.isfunction(fn) and id(fn) in wrapped:
                wrapper, everywhere = wrapped[id(fn)]
                if everywhere or fn.__module__ != mname:
                    inst.set(mod, attr, wrapper)
    sym = mods["kvgeom.symexpr"]
    inst.set(sym.Poly, "__mul__", _span(tracer, "symexpr.poly_mul", sym.Poly.__mul__))
    inst.set(sym.Expr, "substitute", _span(tracer, "symexpr.substitute", sym.Expr.substitute))
    inst.set(sym.Expr, "eval_at", _span(tracer, "symexpr.eval_at", sym.Expr.eval_at))
    inst.set(sym.Expr, "__init__", _counted_init(tracer, sym.Expr.__init__))
    return inst
