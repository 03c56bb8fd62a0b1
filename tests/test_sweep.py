import concurrent.futures
import dataclasses
import json
import os
import pickle
import time
import tracemalloc
from collections import Counter
from functools import partial
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mediant._sweep as sweep
import mediant.shadows
import mediant.topograph
import mediant.trees
from mediant.cli import main
from mediant.matrices import from_path
from mediant.shadows import TheoremReport, verify_theorem
from mediant.topograph import TopographReport, verify_topograph_proof
from mediant.trees import walk
from oracles import _count_rule_calls


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
    # run_spans imports the pool class from concurrent.futures when it fans out
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
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


@pytest.mark.parametrize("depth", range(10))
def test_spans_partition_every_path(depth):
    # calls spans directly, so no process starts
    every = Counter("".join(word) for n in range(depth + 1) for word in product("LR", repeat=n))
    for jobs in range(1, 18):
        walked = Counter(
            path
            for prefix, span_depth in sweep.spans(depth, jobs)
            for path, _ in walk("matrix", span_depth, prefix)
        )
        assert walked == every, (depth, jobs)


@pytest.mark.parametrize(
    "span,width",
    [
        pytest.param(mediant.shadows._check_span, 2, id="mediant.shadows-2"),
        pytest.param(
            partial(sweep.tally, (mediant.topograph._FLOW,)), 4, id="mediant.topograph-4"
        ),
    ],
)
def test_span_functions_survive_pickling(span, width):
    # run_spans hands the span function to a process pool, which pickles it;
    # the benchmark times shadows' own, and the flow's is built as sweep builds it
    clone = pickle.loads(pickle.dumps(span))
    assert clone("LR", 4) == span("LR", 4) == (2**3 - 1, *[0] * width, None)


# Depth-first preorder meets "LLL" before "R"; breadth-first order puts "R" first.
FAILING = ("LLL", "R")


def _fail_at(monkeypatch, paths, label_paths=None):
    """Make one check fail in each sweep: the theorem's Calkin-Wilf check only
    at `paths`, the topograph's label check only at `label_paths` (by default
    the same paths)."""
    wrong = (0, 1)
    entries = {(m.a, m.b, m.c, m.d) for m in map(from_path, paths)}
    cw_core = mediant.shadows._cw_core
    monkeypatch.setattr(
        mediant.shadows, "_cw_core", lambda *m: wrong if m in entries else cw_core(*m)
    )
    label_paths = paths if label_paths is None else label_paths
    bounds = {
        state
        for path, state in walk("stern-brocot", max(map(len, label_paths)))
        if path in label_paths
    }
    label_core = mediant.topograph._label_core
    monkeypatch.setattr(
        mediant.topograph, "_label_core", lambda *s: wrong if s in bounds else label_core(*s)
    )


def test_first_failure_is_the_bfs_earliest_within_a_span(monkeypatch):
    _fail_at(monkeypatch, FAILING)
    theorem = verify_theorem(5)
    assert theorem.cw_failures == 2 and theorem.farey_failures == 0
    assert theorem.first_failure_path == "R"
    topograph = verify_topograph_proof(5)
    assert topograph.label_failures == 2 and topograph.conjugation_failures == 0
    assert topograph.first_failure_path == "R"


@pytest.mark.parametrize("row", [1, 2, 128, mediant.trees._ROW])
@pytest.mark.parametrize(
    "paths,first",
    [(FAILING, "R"), (("RRLLRRLLR", "LRRLLRRLR"), "LRRLLRRLR")],
    ids=["preorder-differs", "in-split-rows"],
)
def test_tally_does_not_depend_on_the_row_width(monkeypatch, row, paths, first):
    # width 1 is walk's preorder; depth 9 splits rows at levels 8 and 9 at
    # width 128, and at level 9 at the default width
    monkeypatch.setattr(mediant.trees, "_ROW", row)
    _fail_at(monkeypatch, paths)
    theorem = verify_theorem(9)
    assert (theorem.nodes, theorem.cw_failures, theorem.farey_failures) == (2**10 - 1, 2, 0)
    assert theorem.first_failure_path == first
    topograph = verify_topograph_proof(9).as_dict()
    counted = {key: n for key, n in topograph.items() if key.endswith("_failures") and n}
    # the wrong label feeds the label, Moebius and frame checks
    assert topograph["frames"] == 2**10 - 1
    assert counted == {"label_failures": 2, "mobius_failures": 2, "frame_failures": 2}
    assert topograph["first_failure_path"] == first


def test_an_all_failing_sweep_makes_one_path_per_failing_row(monkeypatch):
    # swapped Stern-Brocot children fail every frame below the root; each row
    # adds up its failures and spells only its first failing node's path
    seed, children, value_of = mediant.trees._TREE_RULES["stern-brocot"]
    monkeypatch.setitem(
        mediant.trees._TREE_RULES, "stern-brocot", (seed, lambda s: children(s)[::-1], value_of)
    )
    rows, spelled = [], []
    grow, spell = mediant.trees._rows, mediant.trees.index_to_path
    monkeypatch.setattr(mediant.trees, "_rows", lambda *a: (rows.append(r) or r for r in grow(*a)))
    monkeypatch.setattr(mediant.trees, "index_to_path", lambda n: spelled.append(n) or spell(n))
    report = verify_topograph_proof(10).as_dict()
    del report["elapsed_s"]
    assert report == {
        "depth": 10, "frames": 2**11 - 1, "conjugation_failures": 2**11 - 2,
        "label_failures": 2**11 - 2, "mobius_failures": 0, "frame_failures": 0,
        "first_failure_path": "L",
    }
    # levels 0..8 are one row each; levels 9 and 10 split into 2 and 4 rows of 256
    assert mediant.trees._ROW == 256 and len(rows) == 15
    # the root's row passes, so 14 rows fail
    assert len(spelled) == 14


def test_first_failure_is_the_bfs_earliest_across_spans(monkeypatch, fake_pool):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _fail_at(monkeypatch, FAILING)
    assert verify_theorem(5, jobs=2).first_failure_path == "R"
    assert verify_topograph_proof(5, jobs=2).first_failure_path == "R"
    assert [pool.tasks for pool in fake_pool] == [len(sweep.spans(5, 2))] * 2
    assert len(sweep.spans(5, 2)) > 1


@given(st.lists(st.none() | st.text(alphabet="LR", max_size=12)))
def test_earliest_failure_is_the_shortest_then_lexicographic_path(paths):
    # the smallest BFS index is the shortest path, then the first with L before R
    found = [path for path in paths if path is not None]
    expected = min(found, key=lambda path: (len(path), path)) if found else None
    assert sweep.earliest_failure(paths) == expected


# what `mediant verify` sweeps: both declarations on one walk
VERIFIERS = [mediant.shadows._THEOREM, mediant.topograph._FLOW]


@pytest.mark.parametrize("declaration", VERIFIERS, ids=lambda d: d[0].__name__)
def test_a_declaration_has_one_flag_per_counter_of_its_report(declaration):
    # tally counts one failure per flag of the check and sweep hands a report
    # one column per counter, so a flag more or less would give counters to
    # the wrong report; the fast path wants a tuple of True on a clean row
    report, check, kinds = declaration
    assert set(kinds) <= set(mediant.trees._TREE_RULES)
    flags = check(*(mediant.trees._TREE_RULES[kind][0] for kind in kinds))
    assert flags == (True,) * len(report.counters())


# Every route to the verifiers' reports, as the list it returns: each verifier
# alone, and both on one walk, as `mediant verify` sweeps them
ROUTES = {
    "verify_theorem": lambda depth, jobs: [verify_theorem(depth, jobs)],
    "verify_topograph_proof": lambda depth, jobs: [verify_topograph_proof(depth, jobs)],
    "joint-sweep": partial(sweep.sweep, VERIFIERS),
}
# a clean report's JSON keys, in field order: no first_failure_path
KEYS = {
    TheoremReport: ["depth", "nodes", "cw_failures", "farey_failures", "elapsed_s"],
    TopographReport: ["depth", "frames", "conjugation_failures", "label_failures",
                      "mobius_failures", "frame_failures", "elapsed_s"],
}


def _untimed(reports):
    return [dataclasses.replace(report, elapsed_s=None) for report in reports]


@pytest.mark.parametrize("depth", [0, 2, 3, 9])
@pytest.mark.parametrize("route", ROUTES)
def test_a_clean_sweep_reports_each_visit_and_no_failure(route, depth):
    start = time.perf_counter()
    reports = ROUTES[route](depth, 1)
    wall = time.perf_counter() - start
    for report in reports:
        assert report.ok and report.first_failure_path is None
        # the walk's own time, inside the call's
        assert 0 <= report.elapsed_s <= wall
        counts = [depth, 2 ** (depth + 1) - 1, *[0] * len(report.counters()), report.elapsed_s]
        doc = json.loads(json.dumps(report.as_dict()))
        assert list(doc.items()) == list(zip(KEYS[type(report)], counts, strict=True))


@pytest.mark.parametrize("route", ROUTES)
def test_two_jobs_report_what_one_job_does(route):
    assert _untimed(ROUTES[route](8, 2)) == _untimed(ROUTES[route](8, 1))


@pytest.mark.parametrize("depth,jobs", [(-1, 1), (3, 0)], ids=["negative-depth", "no-jobs"])
@pytest.mark.parametrize("route", ROUTES)
def test_a_negative_depth_or_no_jobs_is_refused(route, depth, jobs):
    with pytest.raises(ValueError):
        ROUTES[route](depth, jobs)


def test_the_joint_sweep_is_each_single_sweep_on_one_walk():
    joint = sweep.sweep(VERIFIERS, 9, 1)
    assert joint[0].elapsed_s == joint[1].elapsed_s
    assert _untimed(joint) == _untimed([verify_theorem(9), verify_topograph_proof(9)])


@pytest.mark.parametrize("jobs", [None, 1, 2])
def test_verify_grows_each_tree_once_with_one_pool(monkeypatch, fake_pool, capsys, jobs):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    calls = _count_rule_calls(monkeypatch)
    assert main(["verify", "--depth", "8", *([] if jobs is None else ["--jobs", str(jobs)])]) == 0
    jobs = jobs or 1  # left out, --jobs is 1, so two CPUs start no pool
    # per span, for each of the three trees: one call per step of the descent
    # to its prefix, then one per internal node of its subtree (2^8 - 1 in all
    # at jobs 1); a second walk of any tree would double its count
    parts = sweep.spans(8, jobs)
    grown = sum(len(prefix) + 2 ** (depth - len(prefix)) - 1 for prefix, depth in parts)
    assert calls == dict.fromkeys(("matrix", "calkin-wilf", "stern-brocot"), grown)
    assert [pool.tasks for pool in fake_pool] == ([len(parts)] if jobs > 1 else [])
    reports = json.loads(capsys.readouterr().out)
    assert reports["theorem"]["nodes"] == reports["topograph"]["frames"] == 2**9 - 1
    assert reports["theorem"]["elapsed_s"] == reports["topograph"]["elapsed_s"]


@pytest.mark.parametrize("row,jobs", [(1, 1), (2, 1), (128, 1), (mediant.trees._ROW, 1), (1, 2)])
@pytest.mark.parametrize("cw_path,label_path", [FAILING, FAILING[::-1]])
def test_joint_sweep_keeps_each_checks_own_first_failure(
    monkeypatch, fake_pool, capsys, row, jobs, cw_path, label_path
):
    # one path is the earlier in preorder, the other in BFS order: a first
    # failure shared between the checks shows here, whichever check owns which
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(mediant.trees, "_ROW", row)
    _fail_at(monkeypatch, [cw_path], [label_path])
    assert main(["verify", "--depth", "9", "--jobs", str(jobs)]) == 1
    assert [pool.tasks for pool in fake_pool] == ([len(sweep.spans(9, 2))] if jobs > 1 else [])
    out, err = capsys.readouterr()
    theorem, topograph = json.loads(out).values()
    assert theorem["nodes"] == 2**10 - 1
    assert (theorem["cw_failures"], theorem["farey_failures"]) == (1, 0)
    assert theorem["first_failure_path"] == cw_path
    counted = {key: n for key, n in topograph.items() if key.endswith("_failures") and n}
    assert topograph["frames"] == 2**10 - 1
    assert counted == {"label_failures": 1, "mobius_failures": 1, "frame_failures": 1}
    assert topograph["first_failure_path"] == label_path
    assert err.splitlines() == [
        f"theorem verification failed; first failure at path {cw_path!r}",
        f"topograph verification failed; first failure at path {label_path!r}",
    ]


@pytest.mark.parametrize(
    "run",
    [
        lambda: sum(1 for _ in walk("matrix", 16)),
        lambda: verify_theorem(14),
        lambda: verify_topograph_proof(14),
        lambda: sweep.sweep(VERIFIERS, 14, 1),
    ],
    ids=["walk-matrix-16", "verify_theorem-14", "verify_topograph_proof-14", "both-14"],
)
def test_sweeps_hold_o_depth_memory(run):
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
