"""The mutants of src/mediant, and a runner that shows whether the test suite
kills each one.

Two families.  The generated one is every operator mutant that one rule
makes from the source (`generated`): each + to -, - to +, * to +, // to *,
<< to >> and >> to <<, each comparison with one operator to its strict or
non-strict twin and to its negation, and each int literal to itself plus one.
An edit is spliced into the source text at its node, so comments and quotes
stay.  The rule skips a + with a string literal operand, which raises at once
and tests nothing, and the bodies of shadows._checks and topograph._checks,
whose clause ablations the test suite generates from the source on every run
(tests/oracles.py, checked in tests/test_shadows.py and
tests/test_topograph.py).  A generated mutant is named by its module, its
enclosing function, its stripped source line and the edit, with " #2", " #3"
on repeats, never by a line number, so an edit elsewhere renames nothing.
The catalogue (CATALOGUE) holds the hand-made edits that no rule expresses:
reorders, swapped children, render text, dropped imports, wider calls.  Each
is a one-place text edit of one source file and the tests expected to kill
it; tests/test_mutants.py refuses an entry that a generator makes.

For each mutant the runner copies the repository into a temporary directory,
applies the edit to the copy and runs each named test, or for a generated
mutant its module's own test file, in a pytest call of its own; if they all
pass, it runs the whole suite with -x, less tests/test_mutants.py (which
fails on any applied edit).  Every pytest call passes --hypothesis-seed=0,
so a mutant's outcome repeats from run to run.  A pytest call that runs past
900 s is ended, and its mutant counts as killed.  Run as a script, the runner
caps its address space at 2 GiB, and every pytest call inherits the cap, so
a mutant that grows memory without bound fails with MemoryError in seconds.
The working tree is never edited.  Mutants run min(os.cpu_count(), number
chosen) at a time, and their lines print in the order they were chosen.

    python3 tools/mutants.py             # every mutant of both families
    python3 tools/mutants.py NAME ...    # the named mutants

One line per mutant: killed, missed by a named test, killed only by the
wider suite, or survived.  The exit status is 1 when a mutant's outcome is
not the expected one, so a stale killer list shows.  A mutant is expected to
be killed, by every named test if it has any, unless SURVIVORS lists it with
the reason it is equivalent.  Standard library only; the copy runs the
pytest the current interpreter imports.  tests/test_mutants.py checks,
without running any mutant, that each catalogue edit still applies exactly
once and that each SURVIVORS key names a mutant still made.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from bisect import bisect
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # a catalogue entry's old text occurs exactly once under src/
    new: str
    killers: tuple[str, ...] = ()  # pytest node ids, each expected to fail
    at: int | None = None  # where a generated edit starts in the file's text


# Each operator the rule edits: its text, then each text it becomes.
_EDITS = {
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "+"), ast.FloorDiv: ("//", "*"),
    ast.LShift: ("<<", ">>"), ast.RShift: (">>", "<<"),
    ast.Lt: ("<", "<=", ">="), ast.LtE: ("<=", "<", ">"), ast.Gt: (">", ">=", "<="),
    ast.GtE: (">=", ">", "<"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
}


def _is_text(node: ast.expr) -> bool:
    return isinstance(node, ast.JoinedStr) or isinstance(getattr(node, "value", None), str)


def generated(file: str, text: str) -> list[Mutant]:
    """The operator mutants of one source file's text, in source order."""
    starts = list(accumulate(map(len, text.splitlines(keepends=True)), initial=0))

    def offset(line: int, column: int) -> int:  # ast columns count UTF-8 bytes
        start = starts[line - 1]
        return start + len(text[start:starts[line]].encode()[:column].decode())

    def between(left: ast.expr, right: ast.expr, op: str) -> int:
        # only brackets, blanks, comments and the operator lie between operands
        lo = offset(left.end_lineno, left.end_col_offset)
        gap = text[lo:offset(right.lineno, right.col_offset)]
        return lo + re.sub(r"#.*", lambda comment: " " * len(comment[0]), gap).index(op)

    edits = []  # (enclosing function, offset, old text, new text)

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name != "_checks":
                    visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.BinOp) and type(child.op) in _EDITS:
                old, new = _EDITS[type(child.op)]
                if old != "+" or not (_is_text(child.left) or _is_text(child.right)):
                    edits.append((where, between(child.left, child.right, old), old, new))
            elif (isinstance(child, ast.Compare) and len(child.ops) == 1
                  and type(child.ops[0]) in _EDITS):
                old, *news = _EDITS[type(child.ops[0])]
                at = between(child.left, child.comparators[0], old)
                edits.extend((where, at, old, new) for new in news)
            elif isinstance(child, ast.Constant) and type(child.value) is int:
                at = offset(child.lineno, child.col_offset)
                old = text[at:offset(child.end_lineno, child.end_col_offset)]
                edits.append((where, at, old, str(child.value + 1)))
            visit(child, where)

    visit(ast.parse(text), Path(file).stem)
    seen, family = Counter(), []
    for where, at, old, new in sorted(edits, key=lambda edit: edit[1]):
        row = bisect(starts, at) - 1
        name = f"{where}: {text[starts[row]:starts[row + 1]].strip()} [{old} -> {new}]"
        seen[name] += 1
        family.append(Mutant(name + f" #{seen[name]}" * (seen[name] > 1), file, old, new, at=at))
    return family


def generated_family() -> list[Mutant]:
    """The operator mutants of every source file under src/."""
    return [mutant for path in sorted((ROOT / "src").rglob("*.py"))
            for mutant in generated(path.relative_to(ROOT).as_posix(), path.read_text())]


def apply(mutant: Mutant, text: str) -> str:
    """The text of mutant.file with the mutant's edit made."""
    at = text.index(mutant.old) if mutant.at is None else mutant.at
    return text[:at] + mutant.new + text[at + len(mutant.old):]


# The mutants, of either family, that no test can kill, each with the reason
# it is equivalent.  A mutant listed here that dies, or one not listed that
# survives, is unexpected.
SURVIVORS = {
    "_sweep.tally: visits += len(rows[0]) [0 -> 1]":
        "every declaration reads at least two trees, and the rows of one step have one length",
    "rational.ExtendedRational.__init__: num = 1 [1 -> 2]":
        "the gcd reduces 2/0 to 1/0; the line only makes an infinity's sign positive",
    "rational.ExtendedRational.__init__: den = 1 [1 -> 2]":
        "the gcd reduces 0/2 to 0/1; the line only makes zero's denominator positive",
    "topograph.Vertex.__init__: for i in range(3): [3 -> 4]":
        "at i = 3 the inner range(4, 3) is empty, as at i = 2 it already is",
    "trees: _ZERO = ExtendedRational(0, 1) [1 -> 2]": "the constructor reduces 0/2 to 0/1",
    "trees: _INF = ExtendedRational(1, 0) [1 -> 2]": "the constructor reduces 2/0 to 1/0",
    "trees._breadth_first: span = min(depth, _ROW.bit_length() - 1) [- -> +]":
        "a row holds at most _ROW states, so the suffix lists past 2^span paths are built"
        " and never read",
    "trees._breadth_first: suffixes = [list(_level_paths(k)) for k in range(span + 1)] [1 -> 2]":
        "a row holds at most _ROW states, so the suffix lists past 2^span paths are built"
        " and never read",
}

CATALOGUE = [
    # the row engine, the level order, the span engine and the sweep driver
    Mutant(
        "rows-halves-swapped",
        "src/mediant/trees.py",
        '[row[half:] for row in rows]))\n                path, rows = path + "L", [row[:half]',
        '[row[:half] for row in rows]))\n                path, rows = path + "L", [row[half:]',
        ("tests/test_trees.py::test_rows_partition_every_path_under_the_prefix",),
    ),
    Mutant(
        "level-order-suffixes-reversed",
        "src/mediant/trees.py",
        'product("LR", repeat=level)',
        'product("RL", repeat=level)',
        (
            "tests/test_trees.py::test_level_iter_is_walk_stably_sorted_by_level",
            "tests/test_cli.py::test_render_matches_the_public_objects",
        ),
    ),
    Mutant(
        "level-order-chunk-narrower",
        "src/mediant/trees.py",
        'level, "", _ROW)',
        'level, "", _ROW // 2)',
        ("tests/test_trees.py::test_level_order_chunks_are_rows_of_at_most_row_states",),
    ),
    Mutant(
        "level-order-keeps-upper-rows",
        "src/mediant/trees.py",
        "len(path) + k == level",
        "len(path) + k <= level",
        ("tests/test_trees.py::test_level_iter_is_walk_stably_sorted_by_level",),
    ),
    Mutant(
        "level-order-made-up-front",
        "src/mediant/trees.py",
        "return (_level(root, rule, suffixes, level) for level in range(depth + 1))",
        "return [_level(root, rule, suffixes, level) for level in range(depth + 1)]",
        ("tests/test_cli.py::test_level_order_starts_at_any_depth",),
    ),
    Mutant(
        "cw-children-swapped",
        "src/mediant/trees.py",
        "return (a, a + b), (a + b, b)",
        "return (a + b, b), (a, a + b)",
        (
            "tests/test_cli.py::test_render_matches_the_public_objects",
            "tests/test_trees.py::test_level_iter_calkin_wilf",
        ),
    ),
    Mutant(
        "tally-first-found",
        "src/mediant/_sweep.py",
        "counts[-1] = earliest_failure([counts[-1], found])",
        "counts[-1] = counts[-1] or found",
        ("tests/test_sweep.py::test_tally_does_not_depend_on_the_row_width",),
    ),
    Mutant(
        "tally-first-shared-by-the-checks",
        "src/mediant/_sweep.py",
        "            counts[-1] = earliest_failure([counts[-1], found])",
        "            for *_, every in groups:\n"
        "                every[-1] = earliest_failure([every[-1], found])",
        ("tests/test_sweep.py::test_joint_sweep_keeps_each_checks_own_first_failure",),
    ),
    Mutant(
        "tally-path-off-by-one",
        "src/mediant/_sweep.py",
        "trees.index_to_path(len(oks) - 1 + first)",
        "trees.index_to_path(len(oks) + first)",
        ("tests/test_sweep.py::test_first_failure_is_the_bfs_earliest_within_a_span",),
    ),
    Mutant(
        "tally-fast-path-forgives-one",
        "src/mediant/_sweep.py",
        "if oks.count(passed) == len(oks):",
        "if oks.count(passed) >= len(oks) - 1:",
        ("tests/test_sweep.py::test_first_failure_is_the_bfs_earliest_within_a_span",),
    ),
    Mutant(
        "tally-row-last-failure",
        "src/mediant/_sweep.py",
        "first = next(n for n, flags in enumerate(oks) if flags != passed)",
        "first = max(n for n, flags in enumerate(oks) if flags != passed)",
        ("tests/test_sweep.py::test_an_all_failing_sweep_makes_one_path_per_failing_row",),
    ),
    Mutant(
        "tally-first-flag-only",
        "src/mediant/_sweep.py",
        "enumerate(zip(*oks))",
        "enumerate(list(zip(*oks))[:1])",
        ("tests/test_topograph.py::test_verify_counts_a_zero_over_zero_label",),
    ),
    Mutant(
        "tally-counts-once",
        "src/mediant/_sweep.py",
        "counts[i] += column.count(False)",
        "counts[i] += False in column",
        ("tests/test_sweep.py::test_an_all_failing_sweep_makes_one_path_per_failing_row",),
    ),
    Mutant(
        "ok-reads-one-counter",
        "src/mediant/_sweep.py",
        "for name in self.counters())",
        "for name in self.counters()[:1])",
        ("tests/test_sweep.py::test_joint_sweep_keeps_each_checks_own_first_failure",),
    ),
    Mutant(
        "spans-overlap-at-split",
        "src/mediant/_sweep.py",
        'return [("", split - 1)]',
        'return [("", split)]',
        ("tests/test_sweep.py::test_spans_partition_every_path",),
    ),
    Mutant(
        "earliest-failure-lexicographic",
        "src/mediant/_sweep.py",
        "return min(found, key=trees.bfs_index)",
        "return min(found)",
        ("tests/test_sweep.py::test_first_failure_is_the_bfs_earliest_within_a_span",),
    ),
    Mutant(
        "pool-uncapped",
        "src/mediant/_sweep.py",
        "max_workers=min(jobs, len(parts))",
        "max_workers=jobs",
        ("tests/test_sweep.py::test_run_spans_starts_no_more_workers_than_spans",),
    ),
    Mutant(
        "cpu-cap-dropped",
        "src/mediant/_sweep.py",
        "jobs = min(jobs, os.cpu_count() or 1)",
        "jobs = jobs",
        ("tests/test_sweep.py::test_run_spans_caps_jobs_at_cpu_count",),
    ),
    # the verifiers' comparisons
    Mutant(
        "frame-raw-first-before-determinant",
        "src/mediant/topograph.py",
        "lo_num * hi_den - lo_den * hi_num == -1\n"
        "            and (num == lo_num + hi_num and den == lo_den + hi_den\n"
        "                 or ",
        "num == lo_num + hi_num and den == lo_den + hi_den\n"
        "            or lo_num * hi_den - lo_den * hi_num == -1 and (",
        ("tests/test_topograph.py::test_verify_counts_each_per_frame_clause",),
    ),
    Mutant(
        "frame-ok-z-distinct-at-most-one",
        "src/mediant/topograph.py",
        "abs(lo_num * den - lo_den * num) == 1",
        "abs(lo_num * den - lo_den * num) <= 1",
        ("tests/test_topograph.py::test_verify_counts_a_zero_over_zero_label",),
    ),
    # the CLI and the library around the sweeps
    Mutant(
        "verify-declarations-swapped",
        "src/mediant/cli.py",
        "sweep([_THEOREM, _FLOW]",
        "sweep([_FLOW, _THEOREM]",
        ("tests/test_cli.py::test_verify_clean",),
    ),
    Mutant(
        "number-sign-accepts-plus",
        "src/mediant/rational.py",
        r'_NUMBER_RE = re.compile(r"(-?)(\d+)(?:\.(\d+)|/(\d+))?\Z")',
        r'_NUMBER_RE = re.compile(r"([-+]?)(\d+)(?:\.(\d+)|/(\d+))?\Z")',
        ("tests/test_cli.py::test_parse_target",),
    ),
    Mutant(
        "parse-int-counts-the-sign",
        "src/mediant/rational.py",
        'count = len(digits) - digits.startswith("-")',
        "count = len(digits)",
        ("tests/test_rational.py::test_parse_counts_digits_not_the_sign",),
    ),
    Mutant(
        "parse-error-without-the-text",
        "src/mediant/rational.py",
        'raise ValueError(f"not a fraction: {text!r}")',
        'raise ValueError("not a fraction")',
        ("tests/test_cli.py::test_locate_names_the_text_it_cannot_parse",),
    ),
    Mutant(
        "topograph-forward-denominator",
        "src/mediant/cli.py",
        "(ln, ld, hn, hd, *_sums(ln, ld, hn, hd))",
        "(ln, ld, hn, hd, *_sums(ln, ld, hn, hn))",
        ("tests/test_bench_contract.py::test_render_trees_pass_the_bench_checker",),
    ),
    Mutant(
        "mat2-admits-frames",
        "src/mediant/matrices.py",
        "if a * d - b * c != 1:",
        "if a * d - b * c not in (1, -1):",
        ("tests/test_matrices.py::test_member_constructor_validation",),
    ),
    Mutant(
        "sb-rationals-bounds-swapped",
        "src/mediant/trees.py",
        "ExtendedRational(lo_num, lo_den),\n        ExtendedRational(hi_num, hi_den),",
        "ExtendedRational(hi_num, hi_den),\n        ExtendedRational(lo_num, lo_den),",
        (
            "tests/test_topograph.py::test_forward_tree_root",
            "tests/test_trees.py::test_walk_states_match_the_direct_constructions",
        ),
    ),
    Mutant(
        "bfs-index-unchecked",
        "src/mediant/trees.py",
        "return _bfs_index(validate_path(path))",
        "return _bfs_index(path)",
        ("tests/test_trees.py::test_bfs_index_round_trip",),
    ),
    Mutant(
        "cw-value-index-off-by-one",
        "src/mediant/trees.py",
        "return cw_unrank(bfs_index(path))",
        "return cw_unrank(bfs_index(path) + 1)",
        ("tests/test_trees.py::test_walk_states_match_the_direct_constructions",),
    ),
    # what importing the package and the CLI loads
    Mutant(
        "cli-imports-a-verifier-eagerly",
        "src/mediant/cli.py",
        "from ._sweep import sweep\n",
        "from ._sweep import sweep\nfrom .shadows import _THEOREM\n",
        ("tests/test_cli.py::test_import_leaves_the_verifiers_and_json_unloaded",),
    ),
    Mutant(
        "lazy-table-drops-a-name",
        "src/mediant/__init__.py",
        '"verify_topograph_proof", "vertex_matrix")',
        '"verify_topograph_proof")',
        ("tests/test_package.py::test_package_all_is_the_union_of_the_module_lists",),
    ),
    # the chunked writers of the bulk commands
    Mutant(
        "text-level-keeps-its-space",
        "src/mediant/cli.py",
        '_chunks(" " + label, nodes, "\\n" if level else "", 1)',
        '_chunks(" " + label, nodes, "\\n" if level else "", 0)',
        ("tests/test_cli.py::test_tree_cw_text",),
    ),
    Mutant(
        "json-keeps-its-comma",
        "src/mediant/cli.py",
        'values(levels, field_columns), "[\\n", 2)',
        'values(levels, field_columns), "[\\n", 0)',
        ("tests/test_cli.py::test_tree_matrix_json",),
    ),
    Mutant(
        "dot-edges-right-first",
        "src/mediant/cli.py",
        "parents = trees._level_paths(level)",
        "parents = reversed(list(trees._level_paths(level)))",
        ("tests/test_cli.py::test_render_matches_the_public_objects",),
    ),
    Mutant(
        "chunk-head-on-every-chunk",
        "src/mediant/cli.py",
        '        head, cut = "", 0\n',
        "",
        ("tests/test_cli.py::test_render_matches_the_public_objects",),
    ),
]

_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out", ".benchmarks"
)


# A mutant can grow memory without bound, as trees._rows does with
# `while level >= depth`; the whole suite runs in under 1 GiB of address space.
_MEMORY_CAP = 2 << 30


def cap_memory() -> None:
    """Cap this process's address space at _MEMORY_CAP, for it and its children."""
    import resource  # POSIX only, so imported where the script needs it

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = _MEMORY_CAP if hard == resource.RLIM_INFINITY else min(_MEMORY_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def own_tests(file: str) -> str:
    """The test file of a source file's module, tests/test_<module>.py: _sweep's
    is test_sweep, __init__'s test_package and __main__'s test_cli."""
    stem = Path(file).stem
    module = {"__init__": "package", "__main__": "cli"}.get(stem, stem.lstrip("_"))
    return f"tests/test_{module}.py"


def _pytest(tree: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *args],
        cwd=tree, env=env, capture_output=True, text=True, timeout=900,
    )


def _first_failure(run: subprocess.CompletedProcess) -> str:
    for line in run.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return f"exit {run.returncode}"


def run(mutant: Mutant) -> tuple[str, bool]:
    """The outcome line of one mutant, and whether it is the expected one."""
    survives = mutant.name in SURVIVORS
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch) / "repo"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        target = tree / mutant.file
        text = target.read_text()
        if mutant.at is None and text.count(mutant.old) != 1:
            return f"stale: the old text is not in {mutant.file} exactly once", False
        target.write_text(apply(mutant, text))
        try:
            killers = mutant.killers or (own_tests(mutant.file),)
            runs = {killer: _pytest(tree, killer) for killer in killers}
            missed = [killer for killer, named in runs.items() if named.returncode == 0]
            if not missed:
                return f"killed by {', '.join(map(_first_failure, runs.values()))}", not survives
            if len(missed) < len(runs):
                return f"missed by the named {', '.join(missed)}, which passed", False
            # the catalogue's own check fails on any applied edit, so it kills nothing
            suite = _pytest(tree, "--deselect", "tests/test_mutants.py")
        except subprocess.TimeoutExpired as hung:
            return f"killed by timeout after {hung.timeout:.0f} s", not survives
        if suite.returncode != 0:
            expected = not (mutant.killers or survives)
            return f"killed only by the suite, at {_first_failure(suite)}", expected
        return "survived", survives


def _timed(mutant: Mutant) -> tuple[str, bool, float]:
    start = time.perf_counter()
    return (*run(mutant), time.perf_counter() - start)


def main(argv: list[str]) -> int:
    every = generated_family() + CATALOGUE
    by_name = {m.name: m for m in every}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] or every
    unexpected = 0
    with ThreadPoolExecutor(min(os.cpu_count() or 1, len(chosen))) as pool:
        for mutant, (outcome, expected, seconds) in zip(chosen, pool.map(_timed, chosen)):
            unexpected += not expected
            mark = "ok" if expected else "UNEXPECTED"
            print(f"{mark:10} {mutant.name}: {outcome} ({seconds:.1f} s)", flush=True)
            if mutant.name in SURVIVORS:
                print(f"{'':10} expected to survive: {SURVIVORS[mutant.name]}", flush=True)
    print(f"{len(chosen)} mutants, {unexpected} unexpected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    cap_memory()
    sys.exit(main(sys.argv[1:]))
