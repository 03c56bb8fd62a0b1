"""The sweep driver, subtree sharding and span engine: one walk runs every verifier's checks."""

from __future__ import annotations

import os
import time
from dataclasses import fields
from functools import partial
from itertools import chain
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar

from . import trees

T = TypeVar("T")
R = TypeVar("R", bound="SweepReport")


class SweepReport:
    """Shared behaviour of the sweep reports.

    Subclasses are frozen dataclasses whose fields are, in order: depth, the
    visit count, one or more counters named *_failures, first_failure_path
    and elapsed_s, the wall time of the one walk that made every report of a
    sweep call.  That order is the key order of as_dict.
    """

    @classmethod
    def counters(cls) -> list[str]:
        """The *_failures field names, in order: one per flag of the report's check."""
        return [f.name for f in fields(cls) if f.name.endswith("_failures")]

    @property
    def ok(self) -> bool:
        return all(getattr(self, name) == 0 for name in self.counters())

    def as_dict(self) -> dict[str, Any]:
        """The fields in declaration order; first_failure_path only when set."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if out["first_failure_path"] is None:
            del out["first_failure_path"]
        return out


def sweep(declarations: Sequence[tuple[type[R], Any, Any]], depth: int, jobs: int) -> list[R]:
    """One walk to `depth` for all the declarations, each tree any check reads
    grown once, folded into one report per declaration: (depth, visits, the
    sums of its failure counters, its own BFS-earliest failing path, elapsed
    seconds: the walk's, the same in every report)."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    start = time.perf_counter()
    columns = iter(zip(*run_spans(partial(tally, tuple(declarations)), depth, jobs)))
    elapsed, visits = time.perf_counter() - start, sum(next(columns))
    return [report(depth, visits, *[sum(next(columns)) for _ in report.counters()],
                   earliest_failure(next(columns)), elapsed)
            for report, _, _ in declarations]


def spans(depth: int, jobs: int) -> list[tuple[str, int]]:
    """Partition levels 0..depth into disjoint (prefix, depth) subtree spans.

    The first span covers the shallow levels above the split; every path at
    the split level, in level order, owns its whole subtree.  Together they
    cover each path exactly once.
    """
    if jobs <= 1 or depth < 3:
        return [("", depth)]
    split = min(depth, jobs.bit_length() + 1)
    return [("", split - 1)] + [(prefix, depth) for prefix in trees._level_paths(split)]


def run_spans(span_fn: Callable[[str, int], T], depth: int, jobs: int) -> list[T]:
    """Apply span_fn over the partition, fanning out to processes when jobs > 1.

    span_fn must be a picklable callable (a module-level function or a
    functools.partial of one): the pool pickles it.
    jobs is capped at the CPU count before the split, so the span count
    follows the capped value, and the pool never outnumbers the spans.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    parts = spans(depth, jobs)
    if len(parts) == 1:
        prefix, span_depth = parts[0]
        return [span_fn(prefix, span_depth)]
    # imported only here: loading multiprocessing is a start-up cost no single-span run needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(parts))) as pool:
        return list(pool.map(span_fn, (p for p, _ in parts), (d for _, d in parts)))


def tally(declarations: tuple[tuple, ...], prefix: str, depth: int) -> tuple:
    """The span engine.  A declaration is (report, check, kinds): `check` takes
    a state per tree in `kinds` and returns an ok flag per `report.counters()`.
    Each tree any declaration names is grown once, by trees._rows, over one
    subtree span, and every check is mapped over each row.  A row with a
    failure adds up each flag's column, and only its first failing node, the
    row's BFS-earliest, gets a path.  Returns what `sweep` folds: visits, then
    per declaration its failure counts and its own BFS-earliest failing path
    or None."""
    kinds = list(dict.fromkeys(chain.from_iterable(own for _, _, own in declarations)))
    roots, rules = zip(*(trees._start(kind, depth, prefix) for kind in kinds))
    groups = [(check, [kinds.index(kind) for kind in own], (True,) * len(report.counters()),
               [0] * len(report.counters()) + [None]) for report, check, own in declarations]
    visits = 0
    for path, rows in trees._rows(roots, rules, depth, prefix, trees._ROW):
        visits += len(rows[0])
        for check, at, passed, counts in groups:
            oks = list(map(check, *[rows[k] for k in at]))
            if oks.count(passed) == len(oks):
                continue
            for i, column in enumerate(zip(*oks)):
                counts[i] += column.count(False)
            first = next(n for n, flags in enumerate(oks) if flags != passed)
            found = path + trees.index_to_path(len(oks) - 1 + first)
            counts[-1] = earliest_failure([counts[-1], found])
    return (visits, *chain.from_iterable(counts for *_, counts in groups))


def earliest_failure(paths: Iterable[Optional[str]]) -> Optional[str]:
    """The BFS-earliest non-None path, the one of smallest BFS index, or None."""
    found = [p for p in paths if p is not None]
    if not found:
        return None
    return min(found, key=trees.bfs_index)
