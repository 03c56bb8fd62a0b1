"""Shadow maps carrying the matrix tree onto the Calkin-Wilf and Farey trees.

Each map exists in two deliberately separate forms: an entry formula and a
Moebius-action form.  They agree algebraically, but both are kept so tests can
cross-assert two independent transcriptions instead of one definition.  The
entry formulas are raw-int cores (_cw_core, _farey_core) under thin
ExtendedRational wrappers.  verify_theorem runs _checks, the cores against the
tree engine's values, at every path to a depth, a level at a time, on the span
engine _sweep.tally.  Raw pairs compare first, then cross-multiply; 0/0 fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from ._sweep import SweepReport, sweep, tally
from .matrices import Mat2
from .rational import ExtendedRational

__all__ = [
    "TheoremReport",
    "cw_shadow",
    "cw_shadow_mobius",
    "farey_shadow",
    "farey_shadow_mobius",
    "verify_theorem",
]

_ONE = ExtendedRational(1, 1)


def _cw_core(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    return a + b, c + d


def _farey_core(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    return d + b, c + a


def cw_shadow(m: Mat2) -> ExtendedRational:
    """(a b; c d) -> (a+b)/(c+d): the Calkin-Wilf value at the matrix's path."""
    return ExtendedRational(*_cw_core(m.a, m.b, m.c, m.d))


def farey_shadow(m: Mat2) -> ExtendedRational:
    """(a b; c d) -> (d+b)/(c+a): the Farey value at the matrix's path."""
    return ExtendedRational(*_farey_core(m.a, m.b, m.c, m.d))


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


def _checks(entries, cw, sb) -> tuple[bool, bool]:
    """Both shadow cores on the raw matrix, Calkin-Wilf and Stern-Brocot
    states at one path: equal raw pairs pass, others cross-multiply, a raw 0/0
    equals nothing.  The cores are read from the module on every node (tests
    replace them), so a corrupted rule is counted, not raised."""
    (a, b, c, d), (num, den), (lo_num, lo_den, hi_num, hi_den) = entries, cw, sb
    (p, q), (r, s) = _cw_core(a, b, c, d), _farey_core(a, b, c, d)
    med_num, med_den = lo_num + hi_num, lo_den + hi_den
    return ((p == num and q == den or p * den == q * num)
            and (p != 0 or q != 0) and (num != 0 or den != 0),
            (r == med_num and s == med_den or r * med_den == s * med_num)
            and (r != 0 or s != 0) and (med_num != 0 or med_den != 0))


_check_span = partial(tally, ("matrix", "calkin-wilf", "stern-brocot"), _checks, 2)


def verify_theorem(depth: int, jobs: int = 1) -> TheoremReport:
    """Check both shadow maps against independently built trees, exhaustively.

    Every path with |path| <= depth is visited once; the expected values come
    from the Calkin-Wilf and Stern-Brocot child rules, the actual values from
    the shadow formulas' raw-int cores applied to the matrix tree's nodes.
    Pairs compare raw first, cross-multiplied only when unequal, 0/0 failing:
    ExtendedRational equality, building none.  jobs > 1 shards by subtree.
    """
    return sweep(TheoremReport, _check_span, depth, jobs)
