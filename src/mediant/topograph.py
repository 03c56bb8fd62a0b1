"""The topograph on extended rationals, restricted to the forward flow.

Vertices are unordered triples of pairwise Z-distinct extended rationals; two
vertices are adjacent when they share a pair.  Each Z-distinct pair belongs to
exactly two triples (its mediant and its difference), so directing the edge
{0/1, 1/0} toward {0/1, 1/0, 1/1} induces a flow with in-degree one
everywhere, and the forward flow unfolds into a binary tree of oriented
frames.  Conjugating each frame's Moebius matrix reproduces the matrix tree,
and verify_topograph_proof checks that correspondence exhaustively, on the
raw-int cores under farey_label, vertex_matrix and conjugate_shadow: _FLOW names
its report (a *_failures field per flag), _checks and trees, for one walk with
the theorem's.  Raw pairs compare first, then cross-multiply; 0/0 fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ._sweep import SweepReport, sweep
# from_path and sb_node are not called here; they stay module attributes
# because perfbench/layers.py times calls through mediant.topograph by name.
from .matrices import Mat2, Path, _mobius_core, from_path
from .rational import ExtendedRational, is_z_distinct
from .shadows import _farey_core
from .trees import _breadth_first, _pairs, _sb_rationals, sb_node

__all__ = [
    "OrientedVertex",
    "TopographReport",
    "Vertex",
    "conjugate_shadow",
    "farey_label",
    "forward_tree",
    "neighbors",
    "triples_containing",
    "verify_topograph_proof",
    "vertex_matrix",
]

@dataclass(frozen=True)
class Vertex:
    """An unordered triple of pairwise Z-distinct extended rationals.

    Elements are stored sorted, so equal triples compare equal regardless of
    construction order.
    """

    elements: tuple[ExtendedRational, ExtendedRational, ExtendedRational]

    def __init__(self, x: ExtendedRational, y: ExtendedRational, z: ExtendedRational):
        triple = tuple(sorted((x, y, z)))
        for i in range(3):
            for j in range(i + 1, 3):
                if not is_z_distinct(triple[i], triple[j]):
                    raise ValueError(
                        f"not Z-distinct: {triple[i]}, {triple[j]}"
                    )
        object.__setattr__(self, "elements", triple)

    def __str__(self) -> str:
        return "{%s}" % ", ".join(str(e) for e in self.elements)


@dataclass(frozen=True)
class OrientedVertex:
    """A forward-flow frame: region labels left, right, forward at a path.

    left < right, forward is their mediant, and with left = a/c, right = b/d
    the frame determinant ad - bc is -1.  Frames are produced by forward_tree;
    the invariants are checked by verify_topograph_proof rather than here.
    """

    left: ExtendedRational
    right: ExtendedRational
    forward: ExtendedRational
    path: Path


def triples_containing(
    x: ExtendedRational, y: ExtendedRational
) -> tuple[Vertex, Vertex]:
    """The two triples through a Z-distinct pair: mediant and difference.

    The difference (x.num - y.num)/(x.den - y.den) is canonicalized, so its
    sign convention never leaks out.
    """
    if not is_z_distinct(x, y):
        raise ValueError(f"not a Z-distinct pair: {x}, {y}")
    med = ExtendedRational(x.num + y.num, x.den + y.den)
    diff = ExtendedRational(x.num - y.num, x.den - y.den)
    return Vertex(x, y, med), Vertex(x, y, diff)


def neighbors(v: Vertex) -> tuple[Vertex, Vertex, Vertex]:
    """For each pair inside v, the other triple containing that pair."""
    x, y, z = v.elements
    out = []
    for pair in ((x, y), (x, z), (y, z)):
        first, second = triples_containing(*pair)
        out.append(second if first == v else first)
    return tuple(out)


def forward_tree(depth: int) -> Iterator[OrientedVertex]:
    """BFS of forward-flow frames from the root edge {0/1, 1/0}.

    Root frame (left 0/1, right 1/0, forward 1/1).  The left child keeps the
    left label and advances across the edge {left, forward}; the right child
    keeps the right label.  That is the Stern-Brocot bounds descent, so the
    frames are trees.walk("stern-brocot") states, read level by level off
    walk's own row loop (trees._breadth_first), each level made when reached,
    in O(depth * trees._ROW) memory.  Yields 2^(depth+1) - 1 frames.
    """
    states = _pairs(_breadth_first("stern-brocot", depth))
    return (OrientedVertex(*_sb_rationals(*state), path) for path, state in states)


# The raw-int cores under farey_label, vertex_matrix and conjugate_shadow; a
# frame's raw state is its bounds (lo_num, lo_den, hi_num, hi_den).
def _label_core(lo_num: int, lo_den: int, hi_num: int, hi_den: int) -> tuple[int, int]:
    return lo_num + hi_num, lo_den + hi_den


def _vertex_core(lo_num: int, lo_den: int, hi_num: int, hi_den: int) -> tuple[int, int, int, int]:
    return lo_num, hi_num, lo_den, hi_den


def _conjugate_core(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    return c, a, d, b


def _bounds(v: OrientedVertex) -> tuple[int, int, int, int]:
    return v.left.num, v.left.den, v.right.num, v.right.den


def farey_label(v: OrientedVertex) -> ExtendedRational:
    """The peak label of the frame: the region between its outgoing edges,
    the raw sum of its bounds."""
    return ExtendedRational(*_label_core(*_bounds(v)))


def vertex_matrix(v: OrientedVertex) -> Mat2:
    """The Moebius matrix of the frame: sends 1/0, 0/1, 1/1 to left, right, forward.

    With left = a/c and right = b/d this is (a b; c d), determinant -1.
    """
    return Mat2.frame(*_vertex_core(*_bounds(v)))


def conjugate_shadow(m: Mat2) -> Mat2:
    """(a b; c d) -> (c a; d b): carries vertex matrices onto the matrix tree.

    Flips the determinant, so a frame matrix (det -1) lands in the monoid;
    anything else is rejected by the member constructor.
    """
    return Mat2(*_conjugate_core(m.a, m.b, m.c, m.d))


@dataclass(frozen=True)
class TopographReport(SweepReport):
    """Outcome of one exhaustive forward-flow sweep."""

    depth: int
    frames: int
    conjugation_failures: int
    label_failures: int
    mobius_failures: int
    frame_failures: int
    first_failure_path: Optional[str]
    elapsed_s: float


def _checks(bounds, node) -> tuple[bool, bool, bool, bool]:
    """The four per-frame flags on the raw states of a flow frame (its bounds)
    and the matrix-tree node at its path: conjugation (the vertex matrix is a
    frame, non-negative with determinant +-1, whose conjugate is the node, a
    monoid member), label (the peak label is the node's Farey shadow), mobius
    (the frame sends 1 to the label), frame (bounds of determinant -1, so no
    0/0 mediant, which is the label, Z-distinct from each bound, so not 0/0).
    Fractions compare raw first, cross-multiplied only if unequal, a raw 0/0
    equal to nothing.  A label cross-equal to the mediant m, which is primitive
    (det(lo, m) = -1), is t*m, so one abs test reads |t| for both bounds; a raw
    mediant label needs none.  A member's h >= 0 needs no test: e, f, g >= 0 and
    e*h - f*g = 1 give e*h >= 1, so h > 0.  Cores are read per frame (tests replace them)."""
    (lo_num, lo_den, hi_num, hi_den), (e, f, g, h) = bounds, node
    num, den = _label_core(lo_num, lo_den, hi_num, hi_den)
    a, b, c, d = _vertex_core(lo_num, lo_den, hi_num, hi_den)
    (p, q), (x, y) = _farey_core(e, f, g, h), _mobius_core(a, b, c, d, 1, 1)
    shadow = _conjugate_core(a, b, c, d)
    framed = a >= 0 and b >= 0 and c >= 0 and d >= 0 and a * d - b * c in (1, -1)
    labelled = num != 0 or den != 0
    return (framed and shadow == node
            and e >= 0 and f >= 0 and g >= 0 and e * h - f * g == 1,
            (num == p and den == q or num * q == den * p) and labelled and (p != 0 or q != 0),
            framed and (x == num and y == den or x * den == y * num)
            and (x != 0 or y != 0) and labelled,
            lo_num * hi_den - lo_den * hi_num == -1
            and (num == lo_num + hi_num and den == lo_den + hi_den
                 or num * (lo_den + hi_den) == den * (lo_num + hi_num)
                 and abs(lo_num * den - lo_den * num) == 1))


_FLOW = (TopographReport, _checks, ("stern-brocot", "matrix"))  # a _sweep.tally declaration


def verify_topograph_proof(depth: int, jobs: int = 1) -> TopographReport:
    """Check the flow-to-matrix-tree correspondence exhaustively to `depth`.

    Per frame: the conjugated vertex matrix equals the matrix-tree node at
    the same path; the peak label equals the Farey shadow (d+b)/(c+a) of the
    matrix-tree node; the vertex matrix sends 1 to the forward label; and the
    frame invariants (determinant -1, mediant structure, Z-distinctness)
    hold.  The expected values come from the matrix tree, grown level by
    level beside the flow, so they never depend on the flow being checked.
    _checks runs on raw tree states: no ExtendedRational or Mat2 per frame.
    """
    return sweep([_FLOW], depth, jobs)[0]
