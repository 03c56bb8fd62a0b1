"""The two rational binary trees and the matrix tree: enumeration, ranking,
locating, and bounded-denominator best approximation.

Calkin-Wilf: root 1/1, children of a/b are a/(a+b) and (a+b)/b; the BFS
readout is fusc(n)/fusc(n+1).  Stern-Brocot: nodes are mediants of bracketing
bounds, in-order traversal is sorted.  Both contain every positive rational
exactly once, which is what makes locate well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Union

from .matrices import MAX_LOCATE_STEPS, Mat2, Path, _runs, _spell, validate_path
from .rational import ExtendedRational, mediant
from .stern import _stern_pair

__all__ = [
    "MAX_LOCATE_STEPS",
    "SBNode",
    "TreeNode",
    "best_approximation",
    "bfs_index",
    "cw_locate",
    "cw_unrank",
    "cw_value",
    "index_to_path",
    "level_iter",
    "sb_locate",
    "sb_node",
    "sb_row",
    "walk",
]

_ZERO = ExtendedRational(0, 1)
_INF = ExtendedRational(1, 0)

_STEP_BITS = str.maketrans("LR", "01")
_BIT_STEPS = str.maketrans("01", "LR")


@dataclass(frozen=True)
class SBNode:
    """A Stern-Brocot node: bracketing bounds and their mediant.

    lo < value < hi, all three pairwise Z-distinct.
    """

    lo: ExtendedRational
    hi: ExtendedRational
    value: ExtendedRational


@dataclass(frozen=True)
class TreeNode:
    """A tree node: its path and its value (ExtendedRational, or Mat2 in the
    matrix tree).  Level and tree-global offset are read off the path."""

    path: Path
    value: Union[ExtendedRational, Mat2]

    @property
    def level(self) -> int:
        return len(self.path)

    @property
    def offset(self) -> int:
        """Position within the level, counted from the left end of the whole tree."""
        return bfs_index(self.path) + 1 - (1 << len(self.path))


def bfs_index(path: Path) -> int:
    """Breadth-first index of a path: 2^level - 1 + offset, root = 0.

    In binary, index + 1 is a 1 followed by the path with L as 0 and R as 1,
    so one base-2 parse gives it in time linear in the path length.
    """
    validate_path(path)
    return int("1" + path.translate(_STEP_BITS), 2) - 1


def index_to_path(n: int) -> Path:
    """Inverse of bfs_index: the binary digits of n + 1 after the leading 1."""
    if n < 0:
        raise ValueError("BFS index must be non-negative")
    return bin(n + 1)[3:].translate(_BIT_STEPS)


def cw_value(path: Path) -> ExtendedRational:
    """Calkin-Wilf value at `path`: root 1/1, L child a/(a+b), R child (a+b)/b."""
    validate_path(path)
    a, b = 1, 1
    for step in path:
        if step == "L":
            b += a
        else:
            a += b
    return ExtendedRational(a, b)


def cw_unrank(n: int) -> ExtendedRational:
    """The n-th Calkin-Wilf value in BFS order: fusc(n)/fusc(n+1)."""
    if n < 0:
        raise ValueError("BFS index must be non-negative")
    return ExtendedRational(*_stern_pair(n + 1))


def _require_positive_finite(q: ExtendedRational) -> None:
    if q.den == 0 or q.num <= 0:
        raise ValueError(f"expected a positive finite rational, got {q}")


def cw_locate(q: ExtendedRational) -> Path:
    """The unique path with cw_value(path) = q.

    By Backhouse and Ferreira's transpose-shadow theorem it is the
    Stern-Brocot path of q reversed, so it costs one division per
    continued-fraction quotient, not one step per character.  A path longer
    than MAX_LOCATE_STEPS is refused with ValueError before it is built.
    """
    _require_positive_finite(q)
    return _spell(list(_runs(q.num, q.den))[::-1])


def sb_node(path: Path) -> SBNode:
    """Stern-Brocot node at `path` by bounds descent from (0/1, 1/0)."""
    validate_path(path)
    lo, hi = _ZERO, _INF
    value = mediant(lo, hi)
    for step in path:
        if step == "L":
            hi = value
        else:
            lo = value
        value = mediant(lo, hi)
    return SBNode(lo, hi, value)


def sb_row(level: int) -> list[ExtendedRational]:
    """Row `level` built literally from the sorted Brocot sequence.

    All values of the rows above are sorted, bracketed with 0/1 and 1/0, and
    the consecutive mediants form the next row.  Deliberately independent of
    the sb_node bounds descent: the two constructions are cross-checked
    against each other in the tests.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    seen: list[ExtendedRational] = []
    row: list[ExtendedRational] = []
    for _ in range(level + 1):
        brocot = [_ZERO] + sorted(seen) + [_INF]
        row = [mediant(brocot[i], brocot[i + 1]) for i in range(len(brocot) - 1)]
        seen.extend(row)
    return row


def sb_locate(q: ExtendedRational) -> Path:
    """The unique path with sb_node(path).value = q.

    The descent (L when q is below the current mediant, R when above) is a
    continued-fraction expansion in disguise; each quotient is one run of
    equal steps, with the final run shortened by one to land on the node.
    A path longer than MAX_LOCATE_STEPS is refused with ValueError.
    """
    _require_positive_finite(q)
    return _spell(list(_runs(q.num, q.den)))


def best_approximation(target_num: int, target_den: int, max_den: int) -> ExtendedRational:
    """The fraction with denominator <= max_den closest to target_num/target_den.

    Ties break toward the smaller denominator, then the smaller numerator.
    Pure integer arithmetic throughout: the Stern-Brocot descent follows the
    target's runs (one division per continued-fraction quotient) and stops at
    the first run the denominator bound clips, leaving the two tightest
    bracketing candidates.
    """
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    target = ExtendedRational(target_num, target_den)
    _require_positive_finite(target)
    if target.den <= max_den:
        return target
    a, b, c, d = 0, 1, 1, 0  # bounds lo = a/b, hi = c/d
    for step, count in _runs(target.num, target.den):
        if step == "R":
            j = min(count, (max_den - b) // d) if d else count
            a, b = a + j * c, b + j * d
        else:
            j = min(count, (max_den - d) // b)
            c, d = c + j * a, d + j * b
        if j < count:
            break
    # target sits strictly between lo and hi; pick the closer bound.
    # Scaled distances to the bounds: p ~ target - lo, q ~ hi - target.
    p = target.num * b - a * target.den
    q = c * target.den - target.num * d
    order = p * d - q * b
    # a tie goes to the smaller denominator, then the smaller numerator
    if order < 0 or (order == 0 and (b, a) < (d, c)):
        return ExtendedRational(a, b)
    return ExtendedRational(c, d)


def _cw_children(state):
    a, b = state
    return (a, a + b), (a + b, b)


def _sb_children(state):
    lo_num, lo_den, hi_num, hi_den = state
    num, den = lo_num + hi_num, lo_den + hi_den
    return (lo_num, lo_den, num, den), (num, den, hi_num, hi_den)


def _matrix_children(state):
    # L*M and R*M for L = (1 0; 1 1), R = (1 1; 0 1)
    a, b, c, d = state
    return (a, b, a + c, b + d), (a + c, b + d, c, d)


# kind: (root state, children of a state, node value of a state)
_TREE_RULES = {
    "calkin-wilf": ((1, 1), _cw_children, lambda s: ExtendedRational(*s)),
    "stern-brocot": (
        (0, 1, 1, 0), _sb_children, lambda s: ExtendedRational(s[0] + s[2], s[1] + s[3])
    ),
    "matrix": ((1, 0, 0, 1), _matrix_children, lambda s: Mat2(*s)),
}


def _start(kind: str, depth: int, prefix: Path):
    """Check the arguments; return the state at `prefix` and the children rule."""
    try:
        state, children, _ = _TREE_RULES[kind]
    except KeyError:
        raise ValueError(f"unknown tree kind: {kind!r}") from None
    if depth < 0:
        raise ValueError("depth must be non-negative")
    validate_path(prefix)
    if len(prefix) > depth:
        raise ValueError("prefix cannot be longer than depth")
    for step in prefix:
        state = children(state)[step == "R"]
    return state, children


def walk(kind: str, depth: int, prefix: Path = "") -> Iterator[tuple[Path, Any]]:
    """Yield (path, state) depth first in preorder, levels |prefix|..depth.

    The one traversal loop; it holds O(depth) states.  `kind` names an entry
    of _TREE_RULES, read at call time, and a state is a raw int tuple: (a, b)
    for the Calkin-Wilf value a/b; the Stern-Brocot bounds (lo_num, lo_den,
    hi_num, hi_den), whose raw sum is the node value; the matrix (a, b, c, d).
    Arguments are checked here, before the first node is produced.
    """
    return _walk(*_start(kind, depth, prefix), depth, prefix)


def _walk(root, children, depth: int, prefix: Path) -> Iterator[tuple[Path, Any]]:
    stack = [(prefix, root)]
    while stack:
        path, state = stack.pop()
        yield path, state
        if len(path) < depth:
            left, right = children(state)
            stack.append((path + "R", right))
            stack.append((path + "L", left))


def _breadth_first(kind: str, depth: int) -> Iterator[tuple[Path, Any]]:
    """walk's pairs level by level, left to right, in O(depth) memory: by
    iterative deepening, level k is the depth-k nodes of one walk to depth k."""
    root, children = _start(kind, depth, "")
    return (
        (path, state)
        for level in range(depth + 1)
        for path, state in _walk(root, children, level, "")
        if len(path) == level
    )


def level_iter(kind: str, depth: int) -> Iterator[TreeNode]:
    """Yield TreeNode values level by level, left to right, levels 0..depth:
    exactly 2^(depth+1) - 1 nodes.

    `kind` is one of "calkin-wilf", "stern-brocot" or "matrix"; the matrix
    tree yields Mat2 values.  The order comes from iterative deepening over
    walk.
    """
    states = _breadth_first(kind, depth)
    value_of = _TREE_RULES[kind][2]
    return (TreeNode(path, value_of(state)) for path, state in states)
