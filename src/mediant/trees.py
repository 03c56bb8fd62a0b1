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

from .matrices import Mat2, Path, from_path, generators, validate_path
from .rational import ExtendedRational, mediant
from .stern import fusc

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

# Longest path cw_locate/sb_locate will spell out, one character per step.
MAX_LOCATE_STEPS = 10**7

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
    return ExtendedRational(fusc(n), fusc(n + 1))


def _require_positive_finite(q: ExtendedRational) -> None:
    if q.den == 0 or q.num <= 0:
        raise ValueError(f"expected a positive finite rational, got {q}")


def cw_locate(q: ExtendedRational) -> Path:
    """The unique path with cw_value(path) = q.

    Reverse subtractive Euclid: a/b with a > b is a right child of (a-b)/b,
    with a < b a left child of a/(b-a).  Runs of equal steps are taken in one
    division, so the cost is the number of continued-fraction terms, not the
    path length.  A path longer than MAX_LOCATE_STEPS is refused with
    ValueError before it is built.
    """
    _require_positive_finite(q)
    a, b = q.num, q.den
    runs = []
    while a != b:
        if a > b:
            j = (a - 1) // b
            runs.append(("R", j))
            a -= j * b
        else:
            j = (b - 1) // a
            runs.append(("L", j))
            b -= j * a
    runs.reverse()
    return _spell(runs)


def _spell(runs: list[tuple[str, int]]) -> Path:
    """Join (step, count) runs into a path, refusing one over MAX_LOCATE_STEPS."""
    steps = sum(j for _, j in runs)
    if steps > MAX_LOCATE_STEPS:
        raise ValueError(
            f"path of {steps} steps is longer than the {MAX_LOCATE_STEPS} steps locate spells out"
        )
    return "".join(step * j for step, j in runs)


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
    a, b = q.num, q.den
    runs = []
    step = "R"
    while b:
        j, r = divmod(a, b)
        if r == 0:
            j -= 1
        runs.append((step, j))
        step = "L" if step == "R" else "R"
        a, b = b, r
    return _spell(runs)


def best_approximation(target_num: int, target_den: int, max_den: int) -> ExtendedRational:
    """The fraction with denominator <= max_den closest to target_num/target_den.

    Ties break toward the smaller denominator, then the smaller numerator.
    Pure integer arithmetic throughout: the Stern-Brocot descent is batched
    (one division per continued-fraction quotient) and clipped to the
    denominator bound, leaving the two tightest bracketing candidates.
    """
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    target = ExtendedRational(target_num, target_den)
    _require_positive_finite(target)
    if target.den <= max_den:
        return target
    lo, hi = _ZERO, _INF
    while lo.den + hi.den <= max_den:
        # Scaled distances to the bounds: P ~ target - lo, Q ~ hi - target.
        p = target.num * lo.den - lo.num * target.den
        q = hi.num * target.den - target.num * hi.den
        if q > p:
            # Next mediants are above target: take L steps while that holds,
            # clipped so the new hi denominator stays within max_den.
            j = min((q - 1) // p, (max_den - hi.den) // lo.den)
            hi = ExtendedRational(j * lo.num + hi.num, j * lo.den + hi.den)
        else:
            j = (p - 1) // q
            if hi.den:
                j = min(j, (max_den - lo.den) // hi.den)
            lo = ExtendedRational(lo.num + j * hi.num, lo.den + j * hi.den)
    # target sits strictly between lo and hi; pick the closer bound.
    p = target.num * lo.den - lo.num * target.den
    q = hi.num * target.den - target.num * hi.den
    order = p * hi.den - q * lo.den
    if order < 0:
        return lo
    if order > 0:
        return hi
    if lo.den != hi.den:
        return lo if lo.den < hi.den else hi
    return lo if lo.num < hi.num else hi


_GEN_L, _GEN_R = generators()


def _cw_seed(prefix):
    v = cw_value(prefix)
    return (v.num, v.den)


def _cw_children(state):
    a, b = state
    return (a, a + b), (a + b, b)


def _sb_seed(prefix):
    node = sb_node(prefix)
    return (node.lo, node.hi, node.value)


def _sb_children(state):
    lo, hi, value = state
    return (lo, value, mediant(lo, value)), (value, hi, mediant(value, hi))


def _matrix_children(m):
    return _GEN_L * m, _GEN_R * m


_TREE_RULES = {
    "calkin-wilf": (_cw_seed, _cw_children, lambda s: ExtendedRational(s[0], s[1])),
    "stern-brocot": (_sb_seed, _sb_children, lambda s: s[2]),
    "matrix": (from_path, _matrix_children, lambda m: m),
}


def walk(kind: str, depth: int, prefix: Path = "") -> Iterator[tuple[Path, Any]]:
    """Yield (path, state) level by level, left to right, levels |prefix|..depth.

    The one breadth-first engine behind level_iter and topograph.forward_tree.
    `kind` names an entry of _TREE_RULES, read at call time; the state is that
    rule's raw node: an (a, b) pair, an (lo, hi, value) triple or a Mat2.
    Arguments are checked here, before the first node is produced.
    """
    try:
        seed, children, _ = _TREE_RULES[kind]
    except KeyError:
        raise ValueError(f"unknown tree kind: {kind!r}") from None
    if depth < 0:
        raise ValueError("depth must be non-negative")
    validate_path(prefix)
    if len(prefix) > depth:
        raise ValueError("prefix cannot be longer than depth")
    return _walk(seed, children, depth, prefix)


def _walk(seed, children, depth: int, prefix: Path) -> Iterator[tuple[Path, Any]]:
    states = [(prefix, seed(prefix))]
    for _ in range(len(prefix), depth):
        yield from states
        states = [
            (path + step, child)
            for path, state in states
            for step, child in zip("LR", children(state))
        ]
    yield from states


def level_iter(kind: str, depth: int, prefix: Path = "") -> Iterator[TreeNode]:
    """Yield TreeNode values level by level, left to right, levels 0..depth.

    The whole tree by default: exactly 2^(depth+1) - 1 nodes.  `kind` is one
    of "calkin-wilf", "stern-brocot" or "matrix"; the matrix tree yields Mat2
    values.  A non-empty `prefix` restricts the sweep to that subtree (levels
    |prefix|..depth), which is how verification shards work across
    processes; each node's offset still counts from the left end of the
    whole tree.
    """
    states = walk(kind, depth, prefix)
    value_of = _TREE_RULES[kind][2]
    return (TreeNode(path, value_of(state)) for path, state in states)
