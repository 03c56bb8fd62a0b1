"""The topograph on extended rationals, restricted to the forward flow.

Vertices are unordered triples of pairwise Z-distinct extended rationals; two
vertices are adjacent when they share a pair.  Each Z-distinct pair belongs to
exactly two triples (its mediant and its difference), so directing the edge
{0/1, 1/0} toward {0/1, 1/0, 1/1} induces a flow with in-degree one
everywhere, and the forward flow unfolds into a binary tree of oriented
frames.  Conjugating each frame's Moebius matrix reproduces the matrix tree,
and verify_topograph_proof checks that correspondence exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ._sweep import SweepReport, earliest_failure, sweep
# from_path and sb_node are not called here; they stay module attributes
# because perfbench/layers.py times calls through mediant.topograph by name.
from .matrices import Mat2, Path, _trusted, from_path
from .rational import ExtendedRational, is_z_distinct
from .shadows import farey_shadow
from .trees import _breadth_first, sb_node, walk

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

_ONE = ExtendedRational(1, 1)


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
    frames are trees.walk("stern-brocot") states, in breadth-first order by
    iterative deepening.  Yields 2^(depth+1) - 1 frames for levels 0..depth.
    """
    return (_frame(path, state) for path, state in _breadth_first("stern-brocot", depth))


def _frame(path: Path, state: tuple[int, int, int, int]) -> OrientedVertex:
    """The frame of a Stern-Brocot walk state: its bounds and their raw sum."""
    lo_num, lo_den, hi_num, hi_den = state
    return OrientedVertex(
        ExtendedRational(lo_num, lo_den),
        ExtendedRational(hi_num, hi_den),
        ExtendedRational(lo_num + hi_num, lo_den + hi_den),
        path,
    )


def farey_label(v: OrientedVertex) -> ExtendedRational:
    """The peak label of the frame: the region between its outgoing edges."""
    return v.forward


def vertex_matrix(v: OrientedVertex) -> Mat2:
    """The Moebius matrix of the frame: sends 1/0, 0/1, 1/1 to left, right, forward.

    With left = a/c and right = b/d this is (a b; c d), determinant -1.
    """
    return Mat2.frame(v.left.num, v.right.num, v.left.den, v.right.den)


def conjugate_shadow(m: Mat2) -> Mat2:
    """(a b; c d) -> (c a; d b): carries vertex matrices onto the matrix tree.

    Flips the determinant, so a frame matrix (det -1) lands in the monoid;
    anything else is rejected by the member constructor.
    """
    return Mat2(m.c, m.a, m.d, m.b)


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


def _frame_ok(v: OrientedVertex) -> bool:
    det = v.left.num * v.right.den - v.left.den * v.right.num
    if det != -1:
        return False
    if v.forward != ExtendedRational(v.left.num + v.right.num, v.left.den + v.right.den):
        return False
    return is_z_distinct(v.left, v.forward) and is_z_distinct(v.forward, v.right)


def _check_span(prefix: str, depth: int) -> tuple[int, int, int, int, int, Optional[str]]:
    """Run the four per-frame checks over one subtree span.

    The flow and the matrix tree are walked depth first in lock step, so
    each frame is compared with the matrix-tree node at the same path in
    O(1) work and O(depth) memory.
    """
    frames = conj_bad = label_bad = mobius_bad = frame_bad = 0
    first: Optional[str] = None
    flow = zip(walk("stern-brocot", depth, prefix), walk("matrix", depth, prefix))
    for (path, state), (_, entries) in flow:
        v = _frame(path, state)
        node = _trusted(*entries)  # unchecked: a corrupted rule is counted, not raised
        try:
            matrix = vertex_matrix(v)
        except (TypeError, ValueError):
            matrix = None
        try:
            conj_ok = matrix is not None and conjugate_shadow(matrix) == node
        except (TypeError, ValueError):
            conj_ok = False
        # farey_label is read from the module on every frame: tests replace it.
        label_ok = farey_label(v) == farey_shadow(node)
        try:
            mobius_ok = matrix is not None and matrix(_ONE) == v.forward
        except (TypeError, ValueError):
            mobius_ok = False
        frame_ok = _frame_ok(v)
        frames += 1
        conj_bad += not conj_ok
        label_bad += not label_ok
        mobius_bad += not mobius_ok
        frame_bad += not frame_ok
        if not (conj_ok and label_ok and mobius_ok and frame_ok):
            first = earliest_failure([first, path])
    return frames, conj_bad, label_bad, mobius_bad, frame_bad, first


def verify_topograph_proof(depth: int, jobs: int = 1) -> TopographReport:
    """Check the flow-to-matrix-tree correspondence exhaustively to `depth`.

    Per frame: the conjugated vertex matrix equals the matrix-tree node at
    the same path; the peak label equals the Farey shadow (d+b)/(c+a) of the
    matrix-tree node; the vertex matrix sends 1 to the forward label; and the
    frame invariants (determinant -1, mediant structure, Z-distinctness)
    hold.  The expected values come from the matrix tree, walked in lock
    step with the flow, so they never depend on the flow being checked.
    """
    return sweep(TopographReport, _check_span, depth, jobs)
