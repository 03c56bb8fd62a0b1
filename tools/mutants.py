"""A catalogue of hand-made mutants of src/mediant, and a runner that shows
whether the test suite kills each one.

Each entry is a one-place text edit of one source file, the tests expected
to kill it, and, for an equivalent or masked mutant, the reason it is
expected to survive.  For each entry the runner copies the repository into a
temporary directory, applies the edit to the copy, runs the named tests,
and then, if they all pass, the whole suite with -x, less
tests/test_mutants.py (which fails on any applied edit).  The working tree is
never edited.

    python3 tools/mutants.py             # every entry
    python3 tools/mutants.py NAME ...    # the named entries

One line per entry: killed by a named test, killed only by the wider suite,
or survived.  The exit status is 1 when an entry's outcome is not the
expected one (a killed mutant whose named tests miss it counts as such), so
a stale killer list shows.  Standard library only; the copy runs the pytest
the current interpreter imports.  tests/test_mutants.py checks, without
running any mutant, that each edit still applies exactly once.
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
    # the row engine, the span engine and the sweep driver
    Mutant(
        "rows-halves-swapped",
        "src/mediant/trees.py",
        '[row[half:] for row in rows]))\n                path, rows = path + "L", [row[:half]',
        '[row[:half] for row in rows]))\n                path, rows = path + "L", [row[half:]',
        ("tests/test_trees.py::test_rows_partition_every_path_under_the_prefix",),
    ),
    Mutant(
        "tally-first-found",
        "src/mediant/_sweep.py",
        "first = earliest_failure([first, path + trees.index_to_path(len(oks) - 1 + n)])",
        "first = first or path + trees.index_to_path(len(oks) - 1 + n)",
        ("tests/test_sweep.py::test_tally_does_not_depend_on_the_row_width",),
    ),
    Mutant(
        "tally-path-off-by-one",
        "src/mediant/_sweep.py",
        "trees.index_to_path(len(oks) - 1 + n)",
        "trees.index_to_path(len(oks) + n)",
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
        "tally-first-flag-only",
        "src/mediant/_sweep.py",
        "if False in flags:",
        "if flags[0] is False:",
        ("tests/test_topograph.py::test_verify_counts_a_zero_over_zero_label",),
    ),
    Mutant(
        "tally-counts-once",
        "src/mediant/_sweep.py",
        "failures[i] += not ok",
        "failures[i] |= not ok",
        ("tests/test_sweep.py::test_first_failure_is_the_bfs_earliest_within_a_span",),
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
        "return min(found, key=lambda p: (len(p), p))",
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
        "raw-equal-one-sided-zero",
        "src/mediant/shadows.py",
        "and (p != 0 or q != 0) and (num != 0 or den != 0)",
        "and (num != 0 or den != 0)",
        ("tests/test_shadows.py::test_verify_counts_a_zero_over_zero_core",),
    ),
    Mutant(
        "theorem-raw-first-only",
        "src/mediant/shadows.py",
        "(p == num and q == den or p * den == q * num)",
        "(p == num and q == den)",
        ("tests/test_shadows.py::test_verify_accepts_a_scaled_core",),
    ),
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
        (),
        "equivalent: the test runs only when the label is not raw-equal to the"
        " mediant; once the determinant is -1 and num/den cross-multiplies equal"
        " to the mediant, which is in lowest terms, num/den is t times it, and"
        " both halves of the Z-distinct test read |t|; the unmutated half refuses"
        " t = 0 (a 0/0 label), so <= 1 and == 1 agree",
    ),
    Mutant(
        "unimodular-without-d",
        "src/mediant/topograph.py",
        "c >= 0 and d >= 0 and",
        "c >= 0 and",
        ("tests/test_topograph.py::"
         "test_checks_match_the_formulation_before_inlining_on_every_small_frame",),
    ),
    # the CLI and the library around the sweeps
    Mutant(
        "number-sign-accepts-plus",
        "src/mediant/cli.py",
        '_NUMBER_RE = re.compile(r"(-?)',
        '_NUMBER_RE = re.compile(r"([-+]?)',
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
        '"forward": "{ln + hn}/{ld + hd}"',
        '"forward": "{ln + hn}/{ld + hn}"',
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
        "approx-tie-key-numerator-first",
        "src/mediant/trees.py",
        "(b, a) < (d, c)",
        "(a, b) < (c, d)",
        (),
        "equivalent: on unimodular neighbours a < c with b > d forces a = d = 0,"
        " so the upper bound is 1/0 and both keys pick the same side",
    ),
    Mutant(
        "write-one-piece-per-write",
        "src/mediant/cli.py",
        "islice(pieces, 256)",
        "islice(pieces, 1)",
        (),
        "equivalent: the output bytes are the same; only the number of writes grows",
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
        if mutant.killers:
            named = _pytest(tree, *mutant.killers)
            if named.returncode != 0:
                return f"killed by {_first_failure(named)}", not mutant.survives
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
