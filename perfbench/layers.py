"""The traced run: per-module metrics, each timed from outside around public calls.

Spans are recorded in memory by this file, around the calls into each module
(nothing inside mediant is edited), and written to .perfbench_out/ at the end.
Every span carries the count of work it covers, and every result it times is
checked against reference.py or a stated property.  The suite is the same on
every workload; the seed picks its lookup-style inputs.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

import reference as ref
from checks import RenderChecker, check_farey, check_query
from inputs import DEPTH, STERN_HORIZON, lookup_round, render_commands
from lookup_worker import _plain, query_functions

IMPORT_PROBES = 5
LOOKUP_ROUNDS = 100  # 800 locates per tree, 600 path queries per kind
FUSC_CALLS = 100_000
CONSTRUCT_CALLS = 200_000
MUL_PASSES = 50
IMPORT_CLI = "import time; t = time.perf_counter(); import mediant.cli; print(time.perf_counter() - t)"


class Tracer:
    """Spans (name, parent, count, start, end) kept in memory, and the checks made beside them.

    A layer call that raises ends the traced run: its metrics would be void.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self.wrong = 0
        self.errors = []

    @contextmanager
    def span(self, name: str, count: int = 0):
        gc.collect()  # each span starts from a clean heap, not the last span's garbage
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "count": count, "start": time.perf_counter()}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def check(self, problem) -> None:
        if problem:
            self.wrong += 1
            if len(self.errors) < 5:
                self.errors.append(problem)

    def seconds(self, name: str) -> float:
        span = next(s for s in self.spans if s["name"] == name)
        return span["end"] - span["start"]


@contextmanager
def timed_references(module, names):
    """Swap module-level references for timing wrappers: name -> [calls, seconds]."""
    totals = {name: [0, 0.0] for name in names}
    originals = {name: getattr(module, name) for name in names}

    def wrap(fn, cell):
        clock = time.perf_counter

        def timed(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                cell[1] += clock() - start
                cell[0] += 1

        return timed

    for name in names:
        setattr(module, name, wrap(originals[name], totals[name]))
    try:
        yield totals
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


@contextmanager
def gc_pauses():
    """Total seconds spent in garbage collections while the block runs: [seconds, runs]."""
    total = [0.0, 0]
    started = []

    def callback(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
        elif started:
            total[0] += time.perf_counter() - started.pop()
            total[1] += 1

    gc.callbacks.append(callback)
    try:
        yield total
    finally:
        gc.callbacks.remove(callback)


def _peak_mb(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _plain_mat(x):
    return (x.a, x.b, x.c, x.d)


def _consume(iterator) -> int:
    n = 0
    for _ in iterator:
        n += 1
    return n


def run(root, runner, workload: str, seed: int) -> dict:
    sys.path.insert(0, str(root / "src"))
    import mediant
    import mediant._sweep
    import mediant.cli
    import mediant.shadows
    import mediant.topograph

    m = mediant
    tr = Tracer()
    metrics = {}
    rng = random.Random(seed)
    size = (1 << (DEPTH + 1)) - 1

    def per(name, unit, scale):
        """Metric from the span of that name: scale * seconds / count, or count / seconds."""
        count = next(s["count"] for s in tr.spans if s["name"] == name)
        seconds = tr.seconds(name)
        metrics[name] = (count / seconds if scale is None else scale * seconds / count, unit)

    # --- cli: import cost, in fresh processes ---
    with tr.span("cli.import_s", count=IMPORT_PROBES):
        samples = [float(runner.run(["-c", IMPORT_CLI]).stdout) for _ in range(IMPORT_PROBES)]
    metrics["cli.import_s"] = (statistics.median(samples), "s")

    # --- stern: the table as the CLI grows it, a fresh fill, then lookups ---
    commands = dict(render_commands(seed))
    count = int(commands["stern"][-1])
    with tr.span("stern.sequence.terms_per_s", count=count):
        terms = [m.stern(n) for n in range(count)]
    tr.check(None if terms == ref.stern_list(count) else "stern sequence differs from the recurrence")
    per("stern.sequence.terms_per_s", "terms/s", None)

    with tr.span("stern.fill_s", count=STERN_HORIZON):
        table = m.SternTable()
        table.value(STERN_HORIZON - 1)
    metrics["stern.fill_s"] = (tr.seconds("stern.fill_s"), "s")
    probe = rng.randrange(STERN_HORIZON)
    tr.check(None if table.value(probe) == ref.stern_bitwalk(probe) else "fresh table is wrong")
    m.stern(STERN_HORIZON - 1)  # the lookup warm-up: global table at its final size

    for label, lo, hi in (("table", 0, STERN_HORIZON - 1), ("descent", STERN_HORIZON, 1 << 64)):
        args = [rng.randrange(lo, hi) for _ in range(FUSC_CALLS)]
        name = f"stern.fusc.ns_per_call.{label}"
        with tr.span(name, count=FUSC_CALLS):
            got = [m.fusc(n) for n in args]
        tr.check(None if all(got[i] == ref.fusc(args[i]) for i in range(0, FUSC_CALLS, 97))
                 else f"{name}: wrong value")
        per(name, "ns", 1e9)

    # --- rational ---
    cw_last = [state for _, state in ref.cw_rows(DEPTH)[-1]]
    pairs = [cw_last[rng.randrange(len(cw_last))] for _ in range(CONSTRUCT_CALLS)]
    with tr.span("rational.ExtendedRational.ns_per_call", count=CONSTRUCT_CALLS):
        made = [m.ExtendedRational(a, b) for a, b in pairs]
    tr.check(None if all((q.num, q.den) == p for q, p in zip(made[:1000], pairs))
             else "ExtendedRational changed a reduced pair")
    per("rational.ExtendedRational.ns_per_call", "ns", 1e9)

    bounds = [(m.ExtendedRational(*lo), m.ExtendedRational(*hi))
              for _, (lo, hi) in ref.sb_rows(DEPTH)[-1]]
    bounds = [bounds[rng.randrange(len(bounds))] for _ in range(CONSTRUCT_CALLS)]
    with tr.span("rational.mediant.ns_per_call", count=CONSTRUCT_CALLS):
        meds = [m.mediant(lo, hi) for lo, hi in bounds]
    tr.check(None if all((q.num, q.den) == (lo.num + hi.num, lo.den + hi.den)
                         for q, (lo, hi) in zip(meds[:1000], bounds)) else "mediant is wrong")
    per("rational.mediant.ns_per_call", "ns", 1e9)
    del made, bounds, meds

    max_den = int(commands["farey"][-1])
    with tr.span("rational.farey_sequence.terms_per_s") as s:
        farey = m.farey_sequence(max_den)
        s["count"] = len(farey)
    tr.check(check_farey(json.dumps([str(q) for q in farey]), max_den))
    per("rational.farey_sequence.terms_per_s", "terms/s", None)

    # --- matrices and trees, on the lookup workload's inputs ---
    queries = {}
    for index in range(LOOKUP_ROUNDS):
        for kind, arg, long in lookup_round(seed, index):
            queries.setdefault(kind, []).append((arg, long))
    answer = query_functions(m)

    def timed_queries(name, kind, unit, scale, call=None, per_step=False):
        args = [arg for arg, _ in queries[kind]]
        work = sum(len(a[0] if kind == "decompose" else a) for a in args) if per_step else len(args)
        prepared = args if call is None else [call[0](a) for a in args]
        fn = answer[kind] if call is None else call[1]
        with tr.span(name, count=work):
            got = [fn(a) for a in prepared]
        for arg, result in zip(args, got):
            tr.check(check_query(kind, arg, result))
        per(name, unit, scale)

    timed_queries("matrices.from_path.ns_per_step", "from_path", "ns", 1e9, per_step=True)
    timed_queries("matrices.decompose.ns_per_step", "decompose", "ns", 1e9,
                  call=(lambda a: m.Mat2(*a[1]), m.decompose), per_step=True)
    timed_queries("trees.sb_node.ns_per_step", "sb_node", "ns", 1e9, per_step=True)
    timed_queries("trees.cw_value.ns_per_step", "cw_value", "ns", 1e9, per_step=True)
    timed_queries("trees.cw_unrank.us_per_call", "cw_unrank", "us", 1e6)
    timed_queries("trees.best_approximation.us_per_call", "approx", "us", 1e6, call=(
        lambda a: (m.cli.parse_target(a[0]), a[1]),
        lambda a: _plain(m.best_approximation(a[0].num, a[0].den, a[1]))))

    mats = [m.from_path(arg) for arg, _ in queries["from_path"]]
    left, right = m.generators()
    with tr.span("matrices.Mat2.mul.ns_per_call", count=2 * MUL_PASSES * len(mats)):
        for _ in range(MUL_PASSES):
            for x in mats:
                left * x
                right * x
    per("matrices.Mat2.mul.ns_per_call", "ns", 1e9)
    tr.check(check_query("from_path", queries["from_path"][0][0] + "R", _plain_mat(right * mats[0])))

    paths = {False: [], True: []}
    for kind, fn in (("cw_locate", m.cw_locate), ("sb_locate", m.sb_locate)):
        values = [m.ExtendedRational(*value) for value, _ in queries[kind]]
        with tr.span(f"trees.{kind}.us_per_call", count=len(values)):
            found = [fn(q) for q in values]
        per(f"trees.{kind}.us_per_call", "us", 1e6)
        for (value, long), path in zip(queries[kind], found):
            paths[long].append((kind, value, path))  # checked with bfs_index below
    for long, label in ((False, "short"), (True, "long")):
        name = f"trees.bfs_index.us_per_call.{label}"
        with tr.span(name, count=len(paths[long])):
            indices = [m.bfs_index(path) for _, _, path in paths[long]]
        for (kind, value, path), index in zip(paths[long], indices):
            tr.check(check_query(kind, value, (path, index)))
        per(name, "us", 1e6)

    for kind in ("calkin-wilf", "stern-brocot", "matrix"):
        name = f"trees.level_iter.{kind}.nodes_per_s"
        with tr.span(name) as s:
            nodes = list(m.level_iter(kind, DEPTH))
            s["count"] = len(nodes)
        per(name, "nodes/s", None)
        tr.check(None if len(nodes) == size and nodes[-1].path == "R" * DEPTH
                 else f"{name}: {len(nodes)} nodes")
    tr.check(check_query("from_path", "R" * DEPTH, _plain_mat(nodes[-1].value)))
    del nodes, queries, paths, mats

    # --- shadows and topograph: the two sweeps, plain and with wrapped references ---
    with gc_pauses() as gc_total:
        with tr.span("shadows.verify_theorem.nodes_per_s", count=size):
            report = m.verify_theorem(DEPTH)
    tr.check(_sweep_problem(report.ok, report.nodes, size, "verify_theorem"))
    per("shadows.verify_theorem.nodes_per_s", "nodes/s", None)
    metrics["shadows.verify_theorem.gc_pause_s"] = (gc_total[0], "s")
    with tr.span("shadows.verify_theorem.traced", count=size):
        with timed_references(m.shadows, ("cw_shadow", "farey_shadow")) as totals:
            report = m.verify_theorem(DEPTH)
    tr.check(_sweep_problem(report.ok, report.nodes, size, "traced verify_theorem"))
    metrics["shadows.shadow_check.ns_per_node"] = (
        1e9 * sum(t[1] for t in totals.values()) / size, "ns")

    with tr.span("topograph.verify_topograph_proof.frames_per_s", count=size):
        report = m.verify_topograph_proof(DEPTH)
    tr.check(_sweep_problem(report.ok, report.frames, size, "verify_topograph_proof"))
    per("topograph.verify_topograph_proof.frames_per_s", "frames/s", None)
    with tr.span("topograph.verify_topograph_proof.traced", count=size):
        with timed_references(m.topograph, ("from_path", "sb_node")) as totals:
            report = m.verify_topograph_proof(DEPTH)
    tr.check(_sweep_problem(report.ok, report.frames, size, "traced verify_topograph_proof"))
    metrics["topograph.path_rebuild_s"] = (sum(t[1] for t in totals.values()), "s")

    with tr.span("topograph.forward_tree.frames_per_s") as s:
        s["count"] = _consume(m.forward_tree(DEPTH))
    tr.check(None if s["count"] == size else "forward_tree frame count")
    per("topograph.forward_tree.frames_per_s", "frames/s", None)

    # --- cli.render, the formats the render workload prints ---
    checker = RenderChecker(list(commands.items()))
    for fmt, kind, cmd in (("text", "cw", "tree-cw-text"), ("json", "sb", "tree-sb-json"),
                           ("dot", "matrix", "tree-matrix-dot")):
        name = f"cli.render.ns_per_node.{fmt}"
        with tr.span(name, count=size):
            out = m.cli.render(m.cli.RenderConfig(kind=kind, depth=DEPTH, format=fmt))
        tr.check(checker.check(cmd, out + "\n"))
        per(name, "ns", 1e9)

    # --- _sweep: the process fan-out the timed runs leave out ---
    spans = m._sweep.spans(DEPTH, 2)
    with tr.span("sweep.run_spans.parallel", count=size):
        report = m.verify_theorem(DEPTH, jobs=2)
    tr.check(_sweep_problem(report.ok, report.nodes, size, "verify_theorem --jobs 2"))
    slowest = 0.0
    with tr.span("sweep.spans.serial", count=len(spans)):
        for prefix, depth in spans:
            start = time.perf_counter()
            m.shadows._check_span(prefix, depth)
            slowest = max(slowest, time.perf_counter() - start)
    metrics["sweep.run_spans.fanout_s"] = (tr.seconds("sweep.run_spans.parallel") - slowest, "s")
    metrics["sweep.spans.count"] = (len(spans), "count")

    # --- peak memory under tracemalloc, last: it slows every allocation ---
    with tr.span("topograph.forward_tree.peak_mb", count=size):
        n, peak = _peak_mb(lambda: _consume(m.forward_tree(DEPTH)))
    tr.check(None if n == size else "forward_tree frame count under tracemalloc")
    metrics["topograph.forward_tree.peak_mb"] = (peak, "MB")
    with tr.span("cli.render.peak_mb", count=size):
        out, peak = _peak_mb(lambda: m.cli.render(
            m.cli.RenderConfig(kind="topograph", depth=DEPTH, format="json")))
    tr.check(checker.check("topograph-json", out))
    metrics["cli.render.peak_mb"] = (peak, "MB")

    overhead = {
        "shadows": tr.seconds("shadows.verify_theorem.traced")
        / tr.seconds("shadows.verify_theorem.nodes_per_s") - 1,
        "topograph": tr.seconds("topograph.verify_topograph_proof.traced")
        / tr.seconds("topograph.verify_topograph_proof.frames_per_s") - 1,
    }
    out_path = root / ".perfbench_out" / f"trace-{workload}-{seed}.json"
    out_path.write_text(json.dumps({
        "workload": workload, "seed": seed, "python": sys.version.split()[0],
        "gc_collections": gc_total[1], "tracing_overhead": overhead,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": tr.spans,
    }, indent=1))
    for span in tr.spans:
        print(f"span {span['name']:48s} {span['end'] - span['start']:10.4f} s  count {span['count']}")
    for part, share in overhead.items():
        print(f"tracing overhead on the {part} sweep: {100 * share:+.1f}%")
    return {
        "attempted": len(tr.spans), "failed": 0, "wrong": tr.wrong,
        "errors": tr.errors, "metrics": dict(sorted(metrics.items())),
    }


def _sweep_problem(ok: bool, count: int, size: int, what: str):
    return None if ok and count == size else f"{what}: ok={ok}, {count} of {size}"

