"""The sweep driver, subtree sharding and span engine of the exhaustive verifiers."""

from __future__ import annotations

import os
import time
from dataclasses import fields
from itertools import product
from typing import Any, Callable, Optional, TypeVar

from . import trees

T = TypeVar("T")
R = TypeVar("R", bound="SweepReport")


class SweepReport:
    """Shared behaviour of the sweep reports.

    Subclasses are frozen dataclasses whose fields are, in order: depth, the
    visit count, one or more counters named *_failures, first_failure_path
    and elapsed_s.  That order is the key order of as_dict.
    """

    @property
    def ok(self) -> bool:
        return all(
            getattr(self, f.name) == 0 for f in fields(self) if f.name.endswith("_failures")
        )

    def as_dict(self) -> dict[str, Any]:
        """The fields in declaration order; first_failure_path only when set."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if out["first_failure_path"] is None:
            del out["first_failure_path"]
        return out


def sweep(
    report: Callable[..., R],
    span_fn: Callable[[str, int], tuple],
    depth: int,
    jobs: int,
) -> R:
    """Run span_fn over every subtree span to `depth` and fold the results.

    span_fn returns its counters (visits, then failures) followed by the
    earliest_failure of its failing paths, or None.  The counters are summed
    over the spans and passed to `report` as (depth, *counters, earliest
    failing path, elapsed seconds).
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    start = time.perf_counter()
    parts = run_spans(span_fn, depth, jobs)
    counters = [sum(column) for column in zip(*(part[:-1] for part in parts))]
    first = earliest_failure([part[-1] for part in parts])
    return report(depth, *counters, first, time.perf_counter() - start)


def spans(depth: int, jobs: int) -> list[tuple[str, int]]:
    """Partition levels 0..depth into disjoint (prefix, depth) subtree spans.

    The first span covers the shallow levels above the split; every prefix at
    the split level owns its whole subtree.  Together they cover each path
    exactly once.
    """
    if jobs <= 1 or depth < 3:
        return [("", depth)]
    split = min(depth, jobs.bit_length() + 1)
    prefixes = ["".join(word) for word in product("LR", repeat=split)]
    return [("", split - 1)] + [(prefix, depth) for prefix in prefixes]


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


def tally(kinds: tuple[str, ...], check: Callable[..., tuple], width: int,
          prefix: str, depth: int) -> tuple:
    """The span engine: map `check` (one state per kind in, `width` ok flags
    out) over each row trees._rows grows of the trees named by `kinds` over
    one subtree span.  Only a row with a failure is gone through node by node,
    and only a failing node gets a path.  Returns what `sweep` folds: visits,
    one failure count per flag, the BFS-earliest failing path or None."""
    roots, rules = zip(*(trees._start(kind, depth, prefix) for kind in kinds))
    passed = (True,) * width
    visits, failures, first = 0, [0] * width, None
    for path, rows in trees._rows(roots, rules, depth, prefix, trees._ROW):
        oks = list(map(check, *rows))
        visits += len(oks)
        if oks.count(passed) == len(oks):
            continue
        for n, flags in enumerate(oks):
            if False in flags:
                for i, ok in enumerate(flags):
                    failures[i] += not ok
                first = earliest_failure([first, path + trees.index_to_path(len(oks) - 1 + n)])
    return (visits, *failures, first)


def earliest_failure(paths: list[Optional[str]]) -> Optional[str]:
    """The BFS-earliest non-None path (shortest, then lexicographic), or None."""
    found = [p for p in paths if p is not None]
    if not found:
        return None
    return min(found, key=lambda p: (len(p), p))
