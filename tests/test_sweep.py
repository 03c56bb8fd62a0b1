import os

import pytest

import mediant._sweep as sweep


def _span_nodes(prefix, depth):
    return 2 ** (depth - len(prefix) + 1) - 1


class FakePool:
    """Stands in for ProcessPoolExecutor: runs tasks inline and records the pool size."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.tasks = 0
        FakePool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        results = [fn(*args) for args in zip(*iterables)]
        self.tasks += len(results)
        return results


@pytest.fixture
def fake_pool(monkeypatch):
    FakePool.made = []
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", FakePool)
    return FakePool.made


def test_run_spans_caps_jobs_at_cpu_count(monkeypatch, fake_pool):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parts = sweep.run_spans(_span_nodes, 6, 10**6)
    assert [pool.max_workers for pool in fake_pool] == [2]
    assert fake_pool[0].tasks == len(sweep.spans(6, 2)) == 9
    assert sum(parts) == 2**7 - 1


def test_run_spans_without_a_cpu_count_runs_inline(monkeypatch, fake_pool):
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sweep.run_spans(_span_nodes, 6, 10**6) == [2**7 - 1]
    assert fake_pool == []


def test_run_spans_starts_no_more_workers_than_spans(monkeypatch, fake_pool):
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    parts = sweep.run_spans(_span_nodes, 3, 16)
    assert len(sweep.spans(3, 16)) == 9
    assert [pool.max_workers for pool in fake_pool] == [9]
    assert fake_pool[0].tasks == 9
    assert sum(parts) == 2**4 - 1
