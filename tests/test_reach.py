"""Every function that kvgeom defines is reached by a shipped scenario, or is listed here with a reason.

Run as a script, this file runs every built-in scenario and every ``tests/data`` file at seed 42 (one
format is enough: both go through ``render_report``) under ``sys.setprofile``, and prints the functions
never entered: plain functions, properties, ``cached_property`` and class- and static methods written in
each module's own file, unwrapped from any ``lru_cache``; methods that ``dataclass`` or ``namedtuple``
generate are left out. The test runs it in a subprocess, so that the reader's ``lru_cache``s start empty.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from functools import cached_property
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# why each function that no shipped scenario enters stays
UNREACHED = {
    "CLI entry": ["cli.build_parser", "cli.main", "corpus.list_corpus"],
    # ParseError and SemanticError
    "error path": ["dsl._Parser.error", "dsl._Parser.fail", "errors._PositionedError.__init__"],
    # the round trip parse_scenario(serialize(s)) == s, the constructors of the tour and the demos, and the
    # paper's bracket of one-forms and contravariant connection, which demo 01 walks through
    "README/demo API": [
        "dsl.Scenario.__eq__", "dsl._algebra_text", "dsl.parse_expr", "dsl.serialize",
        "geometry.SymBivector.diagonal", "geometry.SymBivector.standard",
        "geometry.bracket_h", "geometry.contravariant_D", "geometry.nabla_form", "geometry.pair",
    ],
    # fixtures, assertion messages, and the references of tests/conftest.py (Theorem 1's routes, one
    # substitution per entry, the conjugated random algebras)
    "test reference": [
        "geometry.SymBivector.zero", "linalg.inverse",
        "structures.AffineMap.apply", "structures.AffineMap.identity", "structures.AffineSubmanifold.parametrize",
        "structures.pullback", "structures.relatedness_residuals",
        "symexpr.Expr.__repr__", "symexpr.Expr.__rsub__", "symexpr.Expr.__rtruediv__", "symexpr.Expr.const_value",
        "symexpr.Expr.substitute",
        "symexpr.Poly.__init__", "symexpr.Poly.__repr__", "symexpr.Poly.leading_term", "symexpr.Poly.zero",
    ],
}


def _written_in(module) -> dict:
    """Code object -> 'module.qualname' of every function and method written in ``module``'s own file."""

    def functions(member):
        if isinstance(member, property):
            return [member.fget, member.fset, member.fdel]
        if isinstance(member, cached_property):
            return [member.func]
        if isinstance(member, (classmethod, staticmethod)):
            return [member.__func__]
        return [member]

    found = []
    for obj in vars(module).values():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            found += [f for member in vars(obj).values() for f in functions(member)]
        else:
            found.append(obj)
    prefix = module.__name__.removeprefix("kvgeom").lstrip(".")
    out = {}
    for f in found:
        f = inspect.unwrap(f) if callable(f) else f
        code = getattr(f, "__code__", None)
        if code is not None and code.co_filename == module.__file__:
            out[code] = f"{prefix}.{f.__qualname__}" if prefix else f.__qualname__
    return out


def _unreached() -> list[str]:
    import kvgeom
    from kvgeom.cli import run
    from kvgeom.corpus import BUILTIN_SCENARIOS
    from kvgeom.engine import RunConfig

    modules = [kvgeom] + [importlib.import_module(f"kvgeom.{m.name}") for m in pkgutil.iter_modules(kvgeom.__path__)]
    scenarios = list(BUILTIN_SCENARIOS) + [str(p) for p in sorted((ROOT / "tests" / "data").glob("*.kvs"))]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for name in scenarios:
            run(RunConfig(scenarios=(name,), format="json", seed=42))
    finally:
        sys.setprofile(None)
    defined = {}
    for module in modules:
        defined.update(_written_in(module))
    return sorted(name for code, name in defined.items() if code not in entered)


def test_every_unreached_function_is_listed_with_a_reason():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    unreached, listed = set(proc.stdout.split()), {name for names in UNREACHED.values() for name in names}
    assert unreached - listed == set(), "reached by no scenario and not listed"
    assert listed - unreached == set(), "listed, but reached by a scenario or no longer defined"


if __name__ == "__main__":
    print("\n".join(_unreached()))
