"""The names the benchmark in perfbench/ reads from mediant still exist.

perfbench/layers.py and perfbench/lookup_worker.py reach into the package
by attribute name, some of them private or kept only for the benchmark.  A
cleanup that drops one would only show when the benchmark runs with
--trace 1; these tests show it in the suite.  The render workload's own
output check runs here too, on the tree commands it times.
"""

import contextlib
import dataclasses
import importlib
import io
import random
import re
from functools import partial
from pathlib import Path

import pytest

import mediant
import mediant._sweep
import mediant.cli
import mediant.shadows
import mediant.topograph

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Read as `m.<name>` in layers.py and lookup_worker.py, where m is mediant.
_ATTRIBUTE = re.compile(r"\bm\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")

# Read another way: as strings handed to timed_references, or as mediant.<name>.
INDIRECT = [
    "shadows.cw_shadow",
    "shadows.farey_shadow",
    "topograph.from_path",
    "topograph.sb_node",
    "stern",
    "cli.parse_target",
]


def _bench_names():
    names = set(INDIRECT)
    for source in ("layers.py", "lookup_worker.py"):
        names.update(_ATTRIBUTE.findall((BENCH / source).read_text()))
    return sorted(names)


def test_the_benchmark_reads_the_names_this_file_expects():
    # guards the regex: if it stops matching, the next test checks nothing
    names = _bench_names()
    for name in ("SternTable", "generators", "_sweep.spans", "shadows._check_span",
                 "cli.render", "cli.RenderConfig", "level_iter", "forward_tree"):
        assert name in names


@pytest.mark.parametrize("name", _bench_names())
def test_bench_name_exists(name):
    target = mediant
    for part in name.split("."):
        assert hasattr(target, part), f"mediant.{name} is gone; perfbench reads it"
        target = getattr(target, part)


def test_bench_calls_keep_their_shapes():
    m = mediant
    # layers.py's stern.fill_s span and its fresh-table probe
    table = m.SternTable()
    assert table.value(2**20 - 1) == 20
    probe = random.Random(5).randrange(1, 2**20)
    assert table.value(probe) == m.hyperbinary_count_oracle(probe - 1)
    left, right = m.generators()
    assert (left, right) == (m.Mat2(1, 0, 1, 1), m.Mat2(1, 1, 0, 1))
    assert m.topograph.from_path("LR") == m.from_path("LR")
    node = m.topograph.sb_node("LR")
    assert (str(node.lo), str(node.hi), str(node.value)) == ("1/2", "1/1", "2/3")
    assert m.cli.parse_target("0.5") == m.ExtendedRational(1, 2)

    depth = 4
    spans = m._sweep.spans(depth, 2)
    parts = [m.shadows._check_span(prefix, span_depth) for prefix, span_depth in spans]
    assert sum(part[0] for part in parts) == 2 ** (depth + 1) - 1
    # the span tuple layers.py times: visits, one count per *_failures field
    # of the report, then the first failing path or None; the flow's span
    # function is built as sweep builds it
    visits = 2 ** (depth - 1) - 1  # the subtree under "LR"
    flow_span = partial(m._sweep.tally, (m.topograph._FLOW,))
    for span, report in ((m.shadows._check_span, m.TheoremReport), (flow_span, m.TopographReport)):
        counters = [f.name for f in dataclasses.fields(report) if f.name.endswith("_failures")]
        assert span("LR", depth) == (visits, *[0] * len(counters), None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(m.shadows, "_cw_core", lambda *entries: (0, 0))
        patch.setattr(m.topograph, "_label_core", lambda *bounds: (0, 0))
        assert m.shadows._check_span("LR", depth) == (visits, visits, 0, "LR")
        assert flow_span("LR", depth) == (visits, 0, visits, visits, visits, "LR")

    nodes = list(m.level_iter("matrix", depth))
    assert nodes[-1].path == "R" * depth and nodes[-1].value == m.from_path("R" * depth)
    theorem = m.verify_theorem(depth)
    topograph = m.verify_topograph_proof(depth)
    assert theorem.ok and theorem.nodes == topograph.frames == len(nodes)
    assert topograph.ok
    assert sum(1 for _ in m.forward_tree(depth)) == len(nodes)
    out = m.cli.render(m.cli.RenderConfig(kind="topograph", depth=1, format="json"))
    assert '"forward": "1/1"' in out


_RENDER_TREES = ("tree-cw-text", "tree-sb-json", "tree-matrix-dot", "topograph-json")


def test_render_trees_pass_the_bench_checker(monkeypatch):
    # the check that gates the render workload: depth 15 against reference.py,
    # which shares no code with mediant
    monkeypatch.syspath_prepend(str(BENCH))
    inputs, checks = importlib.import_module("inputs"), importlib.import_module("checks")
    commands = [(name, argv) for name, argv in inputs.render_commands(1) if name in _RENDER_TREES]
    assert [name for name, _ in commands] == list(_RENDER_TREES)
    checker = checks.RenderChecker(commands)
    for name, argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert mediant.cli.main(argv) == 0
        assert checker.check(name, out.getvalue()) is None
