"""The topograph on extended rationals, restricted to the forward flow.

Vertices are unordered triples of pairwise Z-distinct extended rationals; two
vertices are adjacent when they share a pair.  Each Z-distinct pair belongs to
exactly two triples (its mediant and its difference), so directing the edge
{0/1, 1/0} toward {0/1, 1/0, 1/1} induces a flow with in-degree one
everywhere, and the forward flow unfolds into a binary tree of oriented
frames.  Conjugating each frame's Moebius matrix reproduces the matrix tree,
and verify_topograph_proof checks that correspondence exhaustively, on the
raw-int cores under farey_label, vertex_matrix and conjugate_shadow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ._sweep import SweepReport, earliest_failure, sweep
# from_path and sb_node are not called here; they stay module attributes
# because perfbench/layers.py times calls through mediant.topograph by name.
from .matrices import Mat2, Path, _mobius_core, from_path
from .rational import ExtendedRational, _raw_equal, is_z_distinct
from .shadows import _farey_core
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
    the matrix tree's level-order successor (trees._breadth_first).  Yields
    2^(depth+1) - 1 frames for levels 0..depth.
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


def _frame_ok(lo_num: int, lo_den: int, hi_num: int, hi_den: int, num: int, den: int) -> bool:
    """The frame invariants on raw ints: bounds of determinant -1, forward
    num/den their mediant, and Z-distinct from each bound."""
    if lo_num * hi_den - lo_den * hi_num != -1:
        return False
    if not _raw_equal(num, den, lo_num + hi_num, lo_den + hi_den):
        return False
    return abs(lo_num * den - lo_den * num) == 1 and abs(num * hi_den - den * hi_num) == 1


def _unimodular(a: int, b: int, c: int, d: int, dets: tuple[int, ...]) -> bool:
    """Non-negative entries and a determinant in dets: what Mat2 admits with
    dets (1,), and Mat2.frame with (1, -1)."""
    return a >= 0 and b >= 0 and c >= 0 and d >= 0 and a * d - b * c in dets


def _check_span(prefix: str, depth: int) -> tuple[int, int, int, int, int, Optional[str]]:
    """Run the four per-frame checks over one subtree span.

    The flow and the matrix tree are walked depth first in lock step, so
    each frame is compared with the matrix-tree node at the same path in
    O(1) work and O(depth) memory.  Raw walk states go straight to the
    cores (read from the module on every frame: tests replace them), so a
    corrupted rule is counted, not raised.  The conjugation check admits
    what the checked constructors behind conjugate_shadow(vertex_matrix(v))
    admit: a frame of determinant +-1 whose conjugate is a monoid member.
    """
    frames = conj_bad = label_bad = mobius_bad = frame_bad = 0
    first: Optional[str] = None
    flow = zip(walk("stern-brocot", depth, prefix), walk("matrix", depth, prefix))
    for (path, bounds), (_, node) in flow:
        num, den = _label_core(*bounds)
        a, b, c, d = _vertex_core(*bounds)
        framed = _unimodular(a, b, c, d, (1, -1))
        shadow = _conjugate_core(a, b, c, d)
        conj_ok = framed and shadow == node and _unimodular(*shadow, (1,))
        label_ok = _raw_equal(num, den, *_farey_core(*node))
        mobius_ok = framed and _raw_equal(*_mobius_core(a, b, c, d, 1, 1), num, den)
        frame_ok = _frame_ok(*bounds, num, den)
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
    The checks call the raw-int cores of the label, vertex-matrix,
    conjugation and Moebius maps on walk states and compare fractions by
    cross-multiplication; no ExtendedRational or Mat2 is built per frame.
    """
    return sweep(TopographReport, _check_span, depth, jobs)
