"""Subtree sharding shared by the exhaustive verification sweeps."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from typing import Callable, Optional, TypeVar

T = TypeVar("T")


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

    span_fn must be a module-level function (the pool pickles it by name).
    jobs is capped at the CPU count before the split, so the span count and
    the pool size both follow the capped value.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    parts = spans(depth, jobs)
    if len(parts) == 1:
        prefix, span_depth = parts[0]
        return [span_fn(prefix, span_depth)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(span_fn, (p for p, _ in parts), (d for _, d in parts)))


def earliest_failure(paths: list[Optional[str]]) -> Optional[str]:
    """BFS-earliest among per-span failure paths: shortest, then lexicographic."""
    found = [p for p in paths if p is not None]
    if not found:
        return None
    return min(found, key=lambda p: (len(p), p))
