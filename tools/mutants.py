"""A catalogue of hand-made mutants of src/mediant, and a runner that shows
whether the test suite kills each one.

Each entry is a one-place text edit of one source file, the tests expected
to kill it, and, for an equivalent or masked mutant, the reason it is
expected to survive.  For each entry the runner copies the repository into a
temporary directory, applies the edit to the copy, runs each named test in
a pytest call of its own, and then, if they all pass, the whole suite with
-x, less tests/test_mutants.py (which fails on any applied edit).  The
working tree is never edited.

    python3 tools/mutants.py             # every entry
    python3 tools/mutants.py NAME ...    # the named entries

One line per entry: killed by every named test, missed by a named test,
killed only by the wider suite, or survived.  The exit status is 1 when an
entry's outcome is not the expected one (a mutant that one of its named
tests misses counts as such), so a stale killer list shows.  Standard
library only; the copy runs the pytest the current interpreter imports.
tests/test_mutants.py checks, without running any mutant, that each edit
still applies exactly once.

The clause ablations of shadows._checks and topograph._checks (an operand of
an and/or replaced by its unit, True or False, or removed) are left to the
family the test suite generates from the source on every run
(tests/oracles.py, checked in tests/test_shadows.py and
tests/test_topograph.py); tests/test_mutants.py refuses such an entry here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once under src/
    new: str
    killers: tuple[str, ...]  # pytest node ids, each expected to fail
    survives: str = ""  # why the mutant is equivalent or masked; "" if it must die


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
    Mutant(
        "elapsed-adds-start",
        "src/mediant/_sweep.py",
        "time.perf_counter() - start, sum(next(columns))",
        "time.perf_counter() + start, sum(next(columns))",
        ("tests/test_sweep.py::test_a_clean_sweep_reports_each_visit_and_no_failure",),
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
        "print-guard-admits-the-limit",
        "src/mediant/rational.py",
        "if limit and n >= 10**limit:",
        "if limit and n > 10**limit:",
        ("tests/test_cli.py::test_printable_names_the_exact_bit_length",),
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
        "depth-cap-off-by-one",
        "src/mediant/cli.py",
        "if depth > cap:",
        "if depth >= cap:",
        ("tests/test_cli.py::test_depth_cap",),
    ),
    Mutant(
        "jobs-default-two",
        "src/mediant/cli.py",
        '"--jobs", type=int, default=1,',
        '"--jobs", type=int, default=2,',
        ("tests/test_sweep.py::test_verify_grows_each_tree_once_with_one_pool[None]",),
    ),
    Mutant(
        "member-repr-names-frame",
        "src/mediant/matrices.py",
        "build = Mat2 if self.det == 1 else Mat2.frame",
        "build = Mat2 if self.det == 2 else Mat2.frame",
        ("tests/test_matrices.py::test_text_form",),
    ),
    Mutant(
        "mediant-refuses-zero-right",
        "src/mediant/rational.py",
        "if x.num < 0 or y.num < 0:",
        "if x.num < 0 or y.num <= 0:",
        ("tests/test_rational.py::test_mediant_examples",),
    ),
    Mutant(
        "farey-first-term",
        "src/mediant/rational.py",
        "a, b, c, d = 0, 1, 1, max_den",
        "a, b, c, d = 1, 1, 1, max_den",
        ("tests/test_rational.py::test_farey_examples",),
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
        "approx-tie-strict",
        "src/mediant/trees.py",
        "order == 0 and b <= d",
        "order == 0 and b < d",
        ("tests/test_trees.py::test_best_approximation_tie_breaking",),
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


def _pytest(tree: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args],
        cwd=tree, env=env, capture_output=True, text=True, timeout=900,
    )


def _first_failure(run: subprocess.CompletedProcess) -> str:
    for line in run.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return f"exit {run.returncode}"


def run(mutant: Mutant) -> tuple[str, bool]:
    """The outcome line of one mutant, and whether it is the expected one."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch) / "repo"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        target = tree / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"stale: the old text is not in {mutant.file} exactly once", False
        target.write_text(text.replace(mutant.old, mutant.new))
        runs = {killer: _pytest(tree, killer) for killer in mutant.killers}
        missed = [killer for killer, named in runs.items() if named.returncode == 0]
        if runs and not missed:
            return f"killed by {', '.join(map(_first_failure, runs.values()))}", not mutant.survives
        if 0 < len(missed) < len(runs):
            return f"missed by the named {', '.join(missed)}, which passed", False
        # the catalogue's own check fails on any applied edit, so it kills nothing
        suite = _pytest(tree, "--deselect", "tests/test_mutants.py")
        if suite.returncode != 0:
            return f"killed only by the suite, at {_first_failure(suite)}", False
        return "survived", bool(mutant.survives)


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in CATALOGUE}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] or CATALOGUE
    unexpected = 0
    for mutant in chosen:
        start = time.perf_counter()
        outcome, expected = run(mutant)
        unexpected += not expected
        mark = "ok" if expected else "UNEXPECTED"
        print(f"{mark:10} {mutant.name}: {outcome} ({time.perf_counter() - start:.1f} s)")
        if mutant.survives:
            print(f"{'':10} expected to survive: {mutant.survives}")
    print(f"{len(chosen)} mutants, {unexpected} unexpected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
