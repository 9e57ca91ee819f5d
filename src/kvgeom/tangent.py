"""The Poisson lift of a symmetric bivector to the tangent bundle, decided on the base chart.

In the chart (x, u) of TM over an affine chart, with horizontal directions
the base coordinate directions and vertical ones the fiber directions, the
lift of a symmetric bivector h is the skew bivector Pi = [[0, H], [-H, 0]]:
it pairs base coordinate forms with fiber ones.  Nothing here constructs it.
Its base-base and fiber-fiber blocks vanish and no entry depends on a fiber
coordinate, so its only Jacobiator entries J(i,j,k), i < j < k, that can be
nonzero are J(a, n+b, n+c) = T(c,b,a) = -T(b,c,a), for a base index a and
fiber indices b < c: h's Codazzi entries, re-indexed, which is why the lift
is Poisson exactly when h is K-V.  ``check jacobi_tangent`` reads them from
h's Codazzi memo in lift order (``_lift_jacobi_entries``).  Its cross-check
with ``is_kv``, which reads the same memo in Codazzi order, does not
recompute T: it guards the re-indexing, since an entry the lift order
skipped would read as a pass on an h that is not K-V.

The horizontal lift W = (X_f, 0) of a Hamiltonian field depends on no fiber
coordinate, so L_W Pi vanishes outside its base-fiber block and is minus
that block's transpose there, and column b of the block is the base-chart
bracket [X_f, (dx_b)^#].  ``lift_propositions_check`` takes those n brackets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .geometry import (
    ScalarField,
    SymBivector,
    coordinate_form,
    hamiltonian,
    hessian_contraction,
    is_kv,
    lie_bracket,
    sharp,
)
from .symexpr import Expr


def _lift_jacobi_entries(h: SymBivector) -> Iterator[tuple[tuple[int, int, int], Expr]]:
    """((a, n+b, n+c), J(a, n+b, n+c)) of the lift of h, in lexicographic order, lazily.

    Each entry is -T(b,c,a), read by index from h's Codazzi memo
    (``SymBivector.codazzi``), where T(b,c,a) sits at place p*n + a, p the
    place of (b, c) among the pairs b < c in row-major order.  The memo is
    extended only as far as the entries read so far need, so T(1,2,1) alone
    decides a generic h, and an exception the memo holds is raised again
    here.  Every other J(i,j,k), i < j < k, of the lift is zero, so the
    first nonzero entry of the full Jacobi table in row-major order is the
    first nonzero one yielded here.
    """
    n, T = h.chart.dim, h.codazzi()
    pairs = [(b, c) for b in range(n) for c in range(b + 1, n)]
    for a in range(n):
        for p, (b, c) in enumerate(pairs):
            yield (a, n + b, n + c), -T[p * n + a][1]


@dataclass(frozen=True)
class LiftPropositionsReport:
    """Outcome of the two Hamiltonian-lift statements for (h, f)."""

    lie_pi_vanishes: bool  # L_{X_f^h} Pi = 0
    f_in_E: bool
    ambient_kv: bool
    mixed_residuals: tuple[tuple[Expr, ...], ...]  # L Pi (dx_i^v, dx_j^h) - <nabla_{X_i} df, X_j>


def lift_propositions_check(h: SymBivector, f: ScalarField) -> LiftPropositionsReport:
    """L_{X_f^h} Pi read from its base-fiber block, n brackets on h's own chart."""
    chart, n = h.chart, h.chart.dim
    X_f = hamiltonian(h, f)
    # block[b][i] = [X_f, (dx_b)^#]_i = (L Pi)(dx_i^h, dx_b^v) = -(L Pi)(dx_b^v, dx_i^h)
    block = [lie_bracket(X_f, sharp(h, coordinate_form(chart, b))).components for b in range(n)]
    vanishes = all(e.is_zero() for row in block for e in row)
    hc = hessian_contraction(h, f)
    f_in = all(e.is_zero() for row in hc for e in row)  # in_E, from the contraction computed once
    mixed = tuple(tuple(-block[i][j] - hc[i][j] for j in range(n)) for i in range(n))
    return LiftPropositionsReport(vanishes, f_in, is_kv(h), mixed)
