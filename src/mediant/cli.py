"""Command-line surface: tree rendering, locate, sequences, verification,
and best approximation.

Exit codes: 0 success, 1 verification found a counterexample, 2 usage error.
Structured output is JSON on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

from .rational import ExtendedRational, _int_digit_limit, _parse_int, farey_sequence
from .shadows import verify_theorem
from .stern import _newman, fusc
from .topograph import forward_tree, verify_topograph_proof
from .trees import best_approximation, bfs_index, cw_locate, level_iter, sb_locate

__all__ = ["RenderConfig", "build_parser", "main", "parse_target", "render"]

_TREE_KINDS = {"cw": "calkin-wilf", "sb": "stern-brocot", "matrix": "matrix"}
_FORMATS = ("text", "json", "dot")

# Terms per stdout write in `stern --count`.
_STERN_CHUNK = 4096

# 2^21 - 1 nodes; deep enough for anything interactive, small enough to stay
# out of swap.  Raise per run with --max-depth-cap.
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


def _rows(config: RenderConfig) -> Iterator[tuple[str, int, str, dict]]:
    """(path, level, text label, json object) per node, in BFS order."""
    if config.kind == "topograph":
        for frame in forward_tree(config.depth):
            label = f"({frame.left} {frame.forward} {frame.right})"
            yield frame.path, len(frame.path), label, {
                "path": frame.path,
                "left": str(frame.left),
                "right": str(frame.right),
                "forward": str(frame.forward),
            }
    else:
        for node in level_iter(_TREE_KINDS[config.kind], config.depth):
            label = str(node.value)
            yield node.path, node.level, label, {"path": node.path, "value": label}


def render(config: RenderConfig) -> str:
    """Render per config: text is one level per line, json an array of nodes,
    dot a digraph with stable path-string node ids (root id "root")."""
    rows = list(_rows(config))
    if config.format == "text":
        levels: list[list[str]] = []
        for _, level, label, _doc in rows:
            if level == len(levels):
                levels.append([])
            levels[level].append(label)
        return "\n".join(" ".join(labels) for labels in levels)
    if config.format == "json":
        return json.dumps([doc for *_ignored, doc in rows], indent=2)
    lines = [f"digraph {config.kind} {{"]
    for path, _, label, _doc in rows:
        lines.append(f'  "{path or "root"}" [label="{label}"];')
    for path, *_ignored in rows:
        if path:
            lines.append(f'  "{path[:-1] or "root"}" -> "{path}";')
    lines.append("}")
    return "\n".join(lines)


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
    kind = args.kind if args.command == "tree" else "topograph"
    config = RenderConfig(
        kind=kind,
        depth=args.depth,
        format=args.format,
        max_depth_cap=args.max_depth_cap,
    )
    print(render(config))
    return 0


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
    terms = _newman(args.count)
    while chunk := "".join(f"{s}\n" for s in islice(terms, _STERN_CHUNK)):
        sys.stdout.write(chunk)
    return 0


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
    print(json.dumps([str(v) for v in farey_sequence(args.max_den)]))
    return 0


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
    topograph.set_defaults(func=_cmd_tree)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
