"""The two rational binary trees and the matrix tree: enumeration, ranking,
locating, and bounded-denominator best approximation.

Calkin-Wilf: root 1/1, children of a/b are a/(a+b) and (a+b)/b; the BFS
readout is fusc(n)/fusc(n+1).  Stern-Brocot: nodes are mediants of bracketing
bounds, in-order traversal is sorted.  Both contain every positive rational
exactly once, which is what makes locate well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product, starmap
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
    return _bfs_index(validate_path(path))


def _bfs_index(path: Path) -> int:
    """bfs_index of a checked path, such as one cw_locate or sb_locate spelled."""
    return int("1" + path.translate(_STEP_BITS), 2) - 1


def index_to_path(n: int) -> Path:
    """Inverse of bfs_index: the binary digits of n + 1 after the leading 1."""
    if n < 0:
        raise ValueError("BFS index must be non-negative")
    return bin(n + 1)[3:].translate(_BIT_STEPS)


def cw_value(path: Path) -> ExtendedRational:
    """Calkin-Wilf value at `path`: root 1/1, L child a/(a+b), R child (a+b)/b;
    read breadth first the tree is fusc(n)/fusc(n+1), so this is cw_unrank(bfs_index(path))."""
    return cw_unrank(bfs_index(path))


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
    """Stern-Brocot node at `path` by bounds descent from (0/1, 1/0).

    The descent runs on raw ints, one mediant sum per step; only the three
    results are built as ExtendedRationals.
    """
    validate_path(path)
    lo_num, lo_den, hi_num, hi_den = 0, 1, 1, 0
    for step in path:
        if step == "L":
            hi_num, hi_den = lo_num + hi_num, lo_den + hi_den
        else:
            lo_num, lo_den = lo_num + hi_num, lo_den + hi_den
    return SBNode(*_sb_rationals(lo_num, lo_den, hi_num, hi_den))


def _sb_rationals(lo_num: int, lo_den: int, hi_num: int, hi_den: int) -> tuple:
    """A Stern-Brocot state's bounds and their raw sum as ExtendedRationals: its
    SBNode's lo, hi and value, and its topograph frame's left, right and forward."""
    return (
        ExtendedRational(lo_num, lo_den),
        ExtendedRational(hi_num, hi_den),
        ExtendedRational(lo_num + hi_num, lo_den + hi_den),
    )


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
    # a tie goes to the smaller denominator; as lo < hi, b == d forces a < c
    if order < 0 or (order == 0 and b <= d):
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

    _rows at width 1, so it holds O(depth) states.  `kind` names an entry of
    _TREE_RULES, read at call time, and a state is a raw int tuple: (a, b)
    for the Calkin-Wilf value a/b; the Stern-Brocot bounds (lo_num, lo_den,
    hi_num, hi_den), whose raw sum is the node value; the matrix (a, b, c, d).
    Arguments are checked here, before the first node is produced.
    """
    root, rule = _start(kind, depth, prefix)
    return ((path, rows[0][0]) for path, rows in _rows((root,), (rule,), depth, prefix, 1))


# The engine's one row size: the most states of one tree held in one list under
# one node, by the sweeps' rows, the level order's chunks and the CLI's batches.
_ROW = 256


def _rows(roots, rules, depth: int, prefix: Path, width: int) -> Iterator[tuple[Path, list]]:
    """The one loop that applies the child rules, depth first: yield (path,
    rows), rows[k] the states of the tree grown from roots[k] by rules[k] at
    one level under `path`, left to right, for levels |prefix|..depth; each
    level is one map of the rule over the row above.  A row that would grow
    past `width` is split into halves under path + "L" and path + "R", the R
    half stacked, so memory is O(depth * width).  Node i of a row of 2^j
    states is at path + i's j bits, L for 0."""
    stack = [(prefix, len(prefix), [[root] for root in roots])]
    while stack:
        path, level, rows = stack.pop()
        yield path, rows
        while level < depth:
            level += 1
            rows = [list(chain.from_iterable(map(rule, row))) for rule, row in zip(rules, rows)]
            if len(rows[0]) > width:
                half = len(rows[0]) // 2
                stack.append((path + "R", level, [row[half:] for row in rows]))
                path, rows = path + "L", [row[:half] for row in rows]
            yield path, rows


def _level_paths(level: int) -> Iterator[Path]:
    """A level's paths, left to right, made as read: binary order with L as 0."""
    return map("".join, product("LR", repeat=level))


def _breadth_first(kind: str, depth: int) -> Iterator[Iterator[tuple[Iterator[Path], list]]]:
    """walk's states level by level, levels 0..depth, each made when a reader
    reaches it: level L as chunks (paths, states) of at most _ROW states, left
    to right, the rows _rows grows to depth L that end at level L, named by
    _level_paths, so O(L * _ROW) states.  Arguments are checked here, eagerly."""
    root, rule = _start(kind, depth, "")
    span = min(depth, _ROW.bit_length() - 1)
    suffixes = [list(_level_paths(k)) for k in range(span + 1)]
    return (_level(root, rule, suffixes, level) for level in range(depth + 1))


def _level(root, rule, suffixes, level: int) -> Iterator[tuple[Iterator[Path], list]]:
    # a row of 2^k states under `path` ends at level len(path) + k; its state
    # i sits at path + suffixes[k][i]
    for path, (row,) in _rows((root,), (rule,), level, "", _ROW):
        k = len(row).bit_length() - 1
        if len(path) + k == level:
            yield map(path.__add__, suffixes[k]), row


def _pairs(levels) -> Iterator[tuple[Path, Any]]:
    """The (path, state) pairs of the chunks of `levels`, in order, read as they come."""
    return chain.from_iterable(starmap(zip, chain.from_iterable(levels)))


def level_iter(kind: str, depth: int) -> Iterator[TreeNode]:
    """Yield TreeNode values level by level, left to right, levels 0..depth:
    exactly 2^(depth+1) - 1 nodes.

    `kind` is one of "calkin-wilf", "stern-brocot" or "matrix"; the matrix
    tree yields Mat2 values.  Each level is walk's rows (_rows, by the kind's
    own child rule), made when reached, in _ROW-node chunks and O(depth * _ROW) memory.
    """
    states = _pairs(_breadth_first(kind, depth))
    value_of = _TREE_RULES[kind][2]
    return (TreeNode(path, value_of(state)) for path, state in states)
