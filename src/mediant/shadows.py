"""Shadow maps carrying the matrix tree onto the Calkin-Wilf and Farey trees.

Each map exists in two deliberately separate forms: an entry formula and a
Moebius-action form.  They agree algebraically, but both are kept so tests can
cross-assert two independent transcriptions instead of one definition.
verify_theorem sweeps every path down to a depth and compares the shadows
against the trees built by the tree engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._sweep import SweepReport, sweep
from .matrices import Mat2
from .rational import ExtendedRational
from .trees import level_iter

__all__ = [
    "TheoremReport",
    "cw_shadow",
    "cw_shadow_mobius",
    "farey_shadow",
    "farey_shadow_mobius",
    "verify_theorem",
]

_ONE = ExtendedRational(1, 1)


def cw_shadow(m: Mat2) -> ExtendedRational:
    """(a b; c d) -> (a+b)/(c+d): the Calkin-Wilf value at the matrix's path."""
    return ExtendedRational(m.a + m.b, m.c + m.d)


def farey_shadow(m: Mat2) -> ExtendedRational:
    """(a b; c d) -> (d+b)/(c+a): the Farey value at the matrix's path."""
    return ExtendedRational(m.d + m.b, m.c + m.a)


def cw_shadow_mobius(m: Mat2) -> ExtendedRational:
    """Same map as cw_shadow in Moebius form: the image of 1 under m."""
    return m(_ONE)


def farey_shadow_mobius(m: Mat2) -> ExtendedRational:
    """Same map as farey_shadow in Moebius form: 1 over the transpose's image of 1."""
    return m.transpose()(_ONE).reciprocal()


@dataclass(frozen=True)
class TheoremReport(SweepReport):
    """Outcome of one exhaustive shadow-vs-tree sweep."""

    depth: int
    nodes: int
    cw_failures: int
    farey_failures: int
    first_failure_path: Optional[str]
    elapsed_s: float


def _check_span(prefix: str, depth: int) -> tuple[int, int, int, Optional[str]]:
    """Compare both shadows against the tree values over one subtree span."""
    nodes = cw_bad = farey_bad = 0
    first: Optional[str] = None
    frames = zip(
        level_iter("matrix", depth, prefix),
        level_iter("calkin-wilf", depth, prefix),
        level_iter("stern-brocot", depth, prefix),
    )
    for mat_node, cw_node, sb_node in frames:
        nodes += 1
        hit = False
        if cw_shadow(mat_node.value) != cw_node.value:
            cw_bad += 1
            hit = True
        if farey_shadow(mat_node.value) != sb_node.value:
            farey_bad += 1
            hit = True
        if hit and first is None:
            first = mat_node.path
    return nodes, cw_bad, farey_bad, first


def verify_theorem(depth: int, jobs: int = 1) -> TheoremReport:
    """Check both shadow maps against independently built trees, exhaustively.

    Every path with |path| <= depth is visited once; the expected values come
    from the tree engine's own child rules, the actual values from the shadow
    formulas applied to from_path.  jobs > 1 shards the sweep by subtree.
    """
    return sweep(TheoremReport, _check_span, depth, jobs)
