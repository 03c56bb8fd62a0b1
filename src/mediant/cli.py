"""Command-line surface: tree rendering, locate, sequences, verification,
and best approximation.

Exit codes: 0 success, 1 counterexample found, 2 usage error, 141 stdout closed early.
Structured output is JSON on stdout; diagnostics go to stderr.  A number too long
for Python to read or print exits 2 before any output (rational's two guards).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from itertools import chain, islice, tee
from operator import add
from typing import Iterable, Iterator, Optional, Sequence

from . import trees
from ._sweep import sweep
from .rational import ExtendedRational, _farey, _printable, parse_target
from .stern import _newman, fusc
from .trees import _bfs_index, _breadth_first, best_approximation, cw_locate, sb_locate

__all__ = ["RenderConfig", "build_parser", "main", "parse_target", "render"]


def _sums(ln, ld, hn, hd):  # a chunk's Stern-Brocot node values: its bounds' sums
    return map(add, ln, hn), map(add, ld, hd)


# Render kind: (tree kind, % templates of one row of the text label and of the json
# fields after "path", then those rows' columns from the columns of a chunk of raw
# states, as the tree kind's _TREE_RULES child rule grows them, None where a state
# is its own row).  States are in lowest terms, so a label prints as its value's str().
_RENDER_KINDS = {
    "cw": ("calkin-wilf", "%s/%s", '"value": "%s/%s"', None, None),
    "sb": ("stern-brocot", "%s/%s", '"value": "%s/%s"', _sums, _sums),
    "matrix": ("matrix", "[[%s,%s],[%s,%s]]", '"value": "[[%s,%s],[%s,%s]]"', None, None),
    "topograph": (  # a Stern-Brocot state: left and right bounds, forward their sum
        "stern-brocot", "(%s/%s %s/%s %s/%s)",
        '"left": "%s/%s",\n    "right": "%s/%s",\n    "forward": "%s/%s"',
        lambda ln, ld, hn, hd: (ln, ld, *_sums(ln, ld, hn, hd), hn, hd),
        lambda ln, ld, hn, hd: (ln, ld, hn, hd, *_sums(ln, ld, hn, hd)),
    ),
}
_FORMATS = ("text", "json", "dot")

# 2^21 - 1 nodes.  Output streams a chunk at a time in O(depth * trees._ROW) memory,
# from the first byte at any depth, so this bounds run time only.  Raise with --max-depth-cap.
DEFAULT_DEPTH_CAP = 20


def _check_depth_cap(depth: int, cap: int) -> None:
    if depth > cap:
        raise ValueError(
            f"depth {depth} exceeds the safety cap {cap} (raise it with --max-depth-cap)"
        )


@dataclass(frozen=True)
class RenderConfig:
    """What to draw: which structure, how deep, and in which format."""

    kind: str
    depth: int
    format: str = "text"
    max_depth_cap: int = DEFAULT_DEPTH_CAP

    def __post_init__(self):
        if self.kind not in _RENDER_KINDS:
            raise ValueError(f"unknown kind: {self.kind!r}")
        if self.format not in _FORMATS:
            raise ValueError(f"unknown format: {self.format!r}")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        _check_depth_cap(self.depth, self.max_depth_cap)


def _chunks(template: str, parts: Iterable, head: str = "", cut: int = 0) -> Iterator[str]:
    """template % row for each row of the parts' values, chained, one % per
    chunk of up to trees._ROW rows; a row is as many values as template has
    "%s".  The first chunk's first `cut` characters become `head`."""
    width, values = template.count("%s"), chain.from_iterable(parts)
    while chunk := tuple(islice(values, trees._ROW * width)):
        yield head + (template * (len(chunk) // width) % chunk)[cut:]
        head, cut = "", 0


def _render_pieces(config: RenderConfig) -> Iterator[str]:
    """render(config) in chunks of up to trees._ROW nodes, each one % of a
    template over the raw states of a _breadth_first chunk (a topograph frame
    is a Stern-Brocot state), in O(depth * trees._ROW) memory, a level made when
    output reaches it.  No ExtendedRational, Mat2 or OrientedVertex is built."""
    tree_kind, label, fields, label_columns, field_columns = _RENDER_KINDS[config.kind]
    levels = _breadth_first(tree_kind, config.depth)

    def values(levels, columns_of, path=True):  # the rows of each chunk, flat
        for paths, states in chain.from_iterable(levels):
            columns = zip(*states) if columns_of is None else columns_of(*zip(*states))
            yield chain.from_iterable(zip(paths, *columns) if path else zip(*columns))

    if config.format == "text":  # a level per line: its first chunk cuts its leading " "
        for level, chunks in enumerate(levels):
            nodes = values([chunks], label_columns, path=False)
            yield from _chunks(" " + label, nodes, "\n" if level else "", 1)
    elif config.format == "json":
        # json.dumps(list_of_nodes, indent=2), laid out by hand.  No string needs
        # escaping: paths are words over "L"/"R", and values (here and in farey) are
        # written with digits, "/", "-", "[", "]" and ",", none of which JSON escapes.
        template = ',\n  {\n    "path": "%s",\n    ' + fields + "\n  }"
        yield from _chunks(template, values(levels, field_columns), "[\n", 2)
        yield "\n]"
    else:  # the root comes first: its dot id "root" replaces its empty path
        yield f"digraph {config.kind} {{"
        template = '\n  "%s" [label="' + label + '"];'
        yield from _chunks(template, values(levels, label_columns), '\n  "root"', 5)
        for level in range(config.depth):  # two edges per parent, in level order
            parents = trees._level_paths(level)
            rows = zip(*tee(parents, 4)) if level else [("root", "", "root", "")]
            yield from _chunks('\n  "%s" -> "%sL";\n  "%s" -> "%sR";', rows)
        yield "\n}"


def render(config: RenderConfig) -> str:
    """Render per config, the bulk output's chunks joined: text is one level per
    line, json an array of nodes, dot a digraph with stable path-string node ids
    (root id "root")."""
    return "".join(_render_pieces(config))


def _write(chunks: Iterable[str]) -> int:
    """Every bulk command's writer: each chunk (up to trees._ROW rows) goes to
    stdout as made, so few syscalls are made even when stdout is unbuffered."""
    sys.stdout.writelines(chunks)
    sys.stdout.flush()  # a reader that left shows here, not in the flush at exit
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    config = RenderConfig(args.kind, args.depth, args.format, args.max_depth_cap)
    return _write(chain(_render_pieces(config), ["\n"]))


def _print_json(value, **options) -> None:
    import json  # loaded by the commands that print JSON only
    print(json.dumps(value, **options))


def _cmd_locate(args: argparse.Namespace) -> int:
    value = ExtendedRational.parse(args.value)
    path = cw_locate(value) if args.tree == "cw" else sb_locate(value)
    index = _printable(_bfs_index(path), f"path of {len(path)} steps has a BFS index")
    _print_json({"path": path, "bfs_index": index})
    return 0


def _cmd_stern(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise ValueError("--count must be non-negative")
    return _write(_chunks("%s\n", [_newman(args.count)]))


def _cmd_fusc(args: argparse.Namespace) -> int:
    print(fusc(args.n))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_depth_cap(args.depth, args.max_depth_cap)
    from .shadows import _THEOREM  # after the cap: a refused depth loads neither
    from .topograph import _FLOW
    reports = dict(zip(("theorem", "topograph"), sweep([_THEOREM, _FLOW], args.depth, args.jobs)))
    _print_json({name: report.as_dict() for name, report in reports.items()}, indent=2)
    failed = [(name, report) for name, report in reports.items() if not report.ok]
    for name, report in failed:
        print(
            f"{name} verification failed; first failure at path {report.first_failure_path!r}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def _cmd_approx(args: argparse.Namespace) -> int:
    target = parse_target(args.target)
    best = best_approximation(target.num, target.den, args.max_den)
    error = ExtendedRational(
        abs(target.num * best.den - best.num * target.den), target.den * best.den
    )
    for name, q in (("best", best), ("error", error)):
        _printable(q.num, f"{name} has a numerator")
        _printable(q.den, f"{name} has a denominator")
    _print_json({"best": str(best), "error": str(error)})
    return 0


def _cmd_farey(args: argparse.Namespace) -> int:
    # The raw pairs are in lowest terms, so "num/den" is each term's canonical
    # text.  A refused max_den raises at the first term, before any write.
    return _write(chain(_chunks(', "%s/%s"', _farey(args.max_den), "[", 2), ["]\n"]))


def _add_cap(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--max-depth-cap",
        type=int,
        default=DEFAULT_DEPTH_CAP,
        metavar="N",
        help=f"safety cap on --depth (default {DEFAULT_DEPTH_CAP})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mediant",
        description="Exact rational trees: enumerate, locate, verify, approximate.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    tree = sub.add_parser("tree", help="enumerate a tree level by level")
    tree.add_argument("--kind", choices=("cw", "matrix", "sb"), required=True)
    tree.add_argument("--depth", type=int, required=True, metavar="N")
    tree.add_argument("--format", choices=_FORMATS, default="text")
    _add_cap(tree)
    tree.set_defaults(func=_cmd_tree)

    locate = sub.add_parser("locate", help="find the path of a value in a tree")
    locate.add_argument("--tree", choices=("cw", "sb"), required=True)
    locate.add_argument("value", help='fraction text, e.g. "4/3"')
    locate.set_defaults(func=_cmd_locate)

    stern_cmd = sub.add_parser("stern", help="print the diatomic sequence")
    stern_cmd.add_argument("--count", type=int, required=True, metavar="N")
    stern_cmd.set_defaults(func=_cmd_stern)

    fusc_cmd = sub.add_parser("fusc", help="print one hyperbinary count")
    fusc_cmd.add_argument("n", type=int)
    fusc_cmd.set_defaults(func=_cmd_fusc)

    verify = sub.add_parser("verify", help="machine-check the shadow and flow correspondences")
    verify.add_argument("--depth", type=int, required=True, metavar="N")
    verify.add_argument("--jobs", type=int, default=1, metavar="J")
    _add_cap(verify)
    verify.set_defaults(func=_cmd_verify)

    approx = sub.add_parser("approx", help="best fraction under a denominator bound")
    approx.add_argument("--target", required=True, help='fraction, integer, or decimal text')
    approx.add_argument("--max-den", type=int, required=True, metavar="D")
    approx.set_defaults(func=_cmd_approx)

    farey = sub.add_parser("farey", help="Farey sequence of a denominator bound")
    farey.add_argument("--max-den", type=int, required=True, metavar="D")
    farey.set_defaults(func=_cmd_farey)

    topograph = sub.add_parser("topograph", help="enumerate forward-flow frames")
    topograph.add_argument("--depth", type=int, required=True, metavar="N")
    topograph.add_argument("--format", choices=_FORMATS, default="text")
    _add_cap(topograph)
    topograph.set_defaults(func=_cmd_tree, kind="topograph")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left: send the rest to devnull, exit as SIGPIPE reads
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
