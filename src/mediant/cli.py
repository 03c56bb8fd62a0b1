"""Command-line surface: tree rendering, locate, sequences, verification,
and best approximation.

Exit codes: 0 success, 1 counterexample found, 2 usage error, 141 stdout closed early.
Structured output is JSON on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Optional, Sequence

from .rational import ExtendedRational, _farey, _int_digit_limit, _parse_int
from .shadows import verify_theorem
from .stern import _newman, fusc
from .topograph import verify_topograph_proof
from .trees import _breadth_first, best_approximation, bfs_index, cw_locate
from .trees import index_to_path, sb_locate

__all__ = ["RenderConfig", "build_parser", "main", "parse_target", "render"]

_TREE_KINDS = {"cw": "calkin-wilf", "sb": "stern-brocot", "matrix": "matrix"}
_FORMATS = ("text", "json", "dot")

# 2^21 - 1 nodes.  Output streams in O(depth) memory, so this bounds run time,
# not memory.  Raise per run with --max-depth-cap.
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
        if self.kind not in ("cw", "sb", "matrix", "topograph"):
            raise ValueError(f"unknown kind: {self.kind!r}")
        if self.format not in _FORMATS:
            raise ValueError(f"unknown format: {self.format!r}")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        _check_depth_cap(self.depth, self.max_depth_cap)


# kind: the str() of the node value (ExtendedRational or Mat2) of a raw walk
# state; walk states are canonical, so the raw ints print as the value does
_LABELS = {
    "cw": lambda a, b: f"{a}/{b}",
    "sb": lambda lo_num, lo_den, hi_num, hi_den: f"{lo_num + hi_num}/{lo_den + hi_den}",
    "matrix": lambda a, b, c, d: f"[[{a},{b}],[{c},{d}]]",
}


def _rows(config: RenderConfig) -> Iterator[tuple[str, str]]:
    """(path, text) per node, in BFS order: the json fields after "path" for
    --format json, else the label.  Labels are formatted from the raw level
    order states; no ExtendedRational, Mat2 or OrientedVertex is built."""
    as_json = config.format == "json"
    if config.kind == "topograph":
        # a frame is a Stern-Brocot state: left and right bounds, forward their sum
        for path, (lo_num, lo_den, hi_num, hi_den) in _breadth_first("stern-brocot", config.depth):
            left, right = f"{lo_num}/{lo_den}", f"{hi_num}/{hi_den}"
            forward = f"{lo_num + hi_num}/{lo_den + hi_den}"
            yield path, (
                f'"left": "{left}",\n    "right": "{right}",\n    "forward": "{forward}"'
                if as_json else f"({left} {forward} {right})"
            )
    else:
        label_of = _LABELS[config.kind]
        for path, state in _breadth_first(_TREE_KINDS[config.kind], config.depth):
            label = label_of(*state)
            yield path, f'"value": "{label}"' if as_json else label


def _render_pieces(config: RenderConfig) -> Iterator[str]:
    """render(config) in pieces, made one node at a time in O(depth) memory."""
    rows = _rows(config)
    if config.format == "text":
        for path, label in rows:
            # a path with no R step is the leftmost node of its level
            yield ("" if not path else " " if "R" in path else "\n") + label
    elif config.format == "json":
        # json.dumps(list_of_nodes, indent=2), laid out by hand.  No string needs
        # escaping: paths are words over "L"/"R", and values (here and in farey) are
        # written with digits, "/", "-", "[", "]" and ",", none of which JSON escapes.
        sep = "[\n"
        for path, fields in rows:
            yield f'{sep}  {{\n    "path": "{path}",\n    {fields}\n  }}'
            sep = ",\n"
        yield "\n]"
    else:
        yield f"digraph {config.kind} {{"
        for path, label in rows:
            yield f'\n  "{path or "root"}" [label="{label}"];'
        for index in range(1, 2 ** (config.depth + 1) - 1):  # every node but the root
            path = index_to_path(index)
            yield f'\n  "{path[:-1] or "root"}" -> "{path}";'
        yield "\n}"


def render(config: RenderConfig) -> str:
    """Render per config: text is one level per line, json an array of nodes,
    dot a digraph with stable path-string node ids (root id "root")."""
    return "".join(_render_pieces(config))


def _write(pieces: Iterable[str]) -> int:
    """Every bulk command's writer: pieces go to stdout as they are made, 256
    to a write, so few syscalls are made even when stdout is unbuffered."""
    pieces = iter(pieces)
    while batch := list(islice(pieces, 256)):
        sys.stdout.write("".join(batch))
    sys.stdout.flush()  # a reader that left shows here, not in the flush at exit
    return 0


_DECIMAL_RE = re.compile(r"(-?)(\d+)\.(\d+)\Z")
_INT_RE = re.compile(r"-?\d+\Z")


def parse_target(text: str) -> ExtendedRational:
    """Exact value of "p/q", integer, or decimal text.

    Decimals become digits over a power of ten; floats are never involved, so
    results are reproducible bit for bit.
    """
    text = text.strip()
    decimal = _DECIMAL_RE.match(text)
    if decimal:
        sign, whole, frac = decimal.groups()
        num = _parse_int(whole + frac)
        return ExtendedRational(-num if sign else num, 10 ** len(frac))
    if _INT_RE.match(text):
        return ExtendedRational(_parse_int(text), 1)
    return ExtendedRational.parse(text)


def _cmd_tree(args: argparse.Namespace) -> int:
    config = RenderConfig(args.kind, args.depth, args.format, args.max_depth_cap)
    return _write(chain(_render_pieces(config), ["\n"]))


def _printable(n: int, what: str) -> int:
    """n >= 0, or a ValueError naming its digit count if Python will not print it."""
    limit = _int_digit_limit()
    if limit and n.bit_length() > 3 * limit:  # 2^(3k) < 10^k: fewer bits always print
        # The float log is off by far less than 1e-6; compare exactly only near 10^k.
        log = math.log10(n)
        near = round(log)
        digits = near + (n >= 10**near) if abs(log - near) < 1e-6 else math.floor(log) + 1
        if digits > limit:
            raise ValueError(
                f"{what} of {digits} digits, more than the {limit} digits Python prints"
                " (sys.get_int_max_str_digits)"
            )
    return n


def _cmd_locate(args: argparse.Namespace) -> int:
    value = ExtendedRational.parse(args.value)
    path = cw_locate(value) if args.tree == "cw" else sb_locate(value)
    index = _printable(bfs_index(path), f"path of {len(path)} steps has a BFS index")
    print(json.dumps({"path": path, "bfs_index": index}))
    return 0


def _cmd_stern(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise ValueError("--count must be non-negative")
    return _write(f"{s}\n" for s in _newman(args.count))


def _cmd_fusc(args: argparse.Namespace) -> int:
    print(fusc(args.n))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_depth_cap(args.depth, args.max_depth_cap)
    theorem = verify_theorem(args.depth, jobs=args.jobs)
    topograph = verify_topograph_proof(args.depth, jobs=args.jobs)
    print(json.dumps({"theorem": theorem.as_dict(), "topograph": topograph.as_dict()}, indent=2))
    failed = [
        (name, report)
        for name, report in (("theorem", theorem), ("topograph", topograph))
        if not report.ok
    ]
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
    print(json.dumps({"best": str(best), "error": str(error)}))
    return 0


def _cmd_farey(args: argparse.Namespace) -> int:
    terms = _farey(args.max_den)
    num, den = next(terms)  # a refused max_den raises here, before any write
    # the raw pairs are in lowest terms, so "num/den" is each term's canonical text
    return _write(chain([f'["{num}/{den}"'], (f', "{a}/{b}"' for a, b in terms), ["]\n"]))


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
    tree.add_argument("--kind", choices=sorted(_TREE_KINDS), required=True)
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
