import dataclasses
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mediant.topograph
import mediant.trees
from mediant.shadows import verify_theorem
from mediant.matrices import IDENTITY, Mat2, _mobius_core, from_path, generators
from mediant.rational import ExtendedRational
from mediant.topograph import (
    OrientedVertex,
    _conjugate_core,
    _label_core,
    _vertex_core,
    Vertex,
    conjugate_shadow,
    farey_label,
    forward_tree,
    neighbors,
    triples_containing,
    verify_topograph_proof,
    vertex_matrix,
)
from mediant.trees import sb_node, walk
from oracles import _raw_equal


def er(num, den=1):
    return ExtendedRational(num, den)


ROOT = Vertex(er(0), er(1), er(1, 0))


def test_vertex_is_unordered():
    assert Vertex(er(1, 0), er(1), er(0)) == ROOT
    assert ROOT.elements == (er(0), er(1), er(1, 0))


def test_vertex_str():
    assert str(ROOT) == "{0/1, 1/1, 1/0}"


def test_vertex_rejects_non_distinct_elements():
    with pytest.raises(ValueError, match="not Z-distinct"):
        Vertex(er(0), er(2, 3), er(1, 0))
    with pytest.raises(ValueError):
        Vertex(er(1, 2), er(1, 2), er(1))


def test_vertex_hashable():
    assert len({ROOT, Vertex(er(0), er(1, 0), er(1))}) == 1


def test_triples_containing_root_edge():
    med, diff = triples_containing(er(0), er(1, 0))
    assert med == ROOT
    assert diff == Vertex(er(-1), er(0), er(1, 0))


def test_triples_containing_examples():
    med, diff = triples_containing(er(1, 2), er(1))
    assert med == Vertex(er(1, 2), er(2, 3), er(1))
    assert diff == Vertex(er(0), er(1, 2), er(1))
    med, _ = triples_containing(er(1, 3), er(1, 2))
    assert er(2, 5) in med.elements


def test_triples_containing_is_order_insensitive():
    assert triples_containing(er(1, 2), er(1)) == triples_containing(er(1), er(1, 2))


def test_triples_containing_rejects_non_distinct_pair():
    with pytest.raises(ValueError, match="not a Z-distinct pair"):
        triples_containing(er(0), er(2, 3))


def test_neighbors_of_root_vertex():
    assert neighbors(ROOT) == (
        Vertex(er(0), er(1, 2), er(1)),
        Vertex(er(-1), er(0), er(1, 0)),
        Vertex(er(1), er(2), er(1, 0)),
    )


def frame_vertex(v: OrientedVertex) -> Vertex:
    return Vertex(v.left, v.forward, v.right)


def test_neighbors_are_symmetric():
    for frame in forward_tree(6):
        v = frame_vertex(frame)
        for u in neighbors(v):
            assert v in neighbors(u)


def test_forward_flow_has_in_degree_one():
    # each triple is entered by the flow at most once, so the frames at
    # distinct paths sit on distinct vertices
    seen = [frame_vertex(f) for f in forward_tree(8)]
    assert len(set(seen)) == len(seen) == 2**9 - 1


def test_forward_tree_root():
    assert list(forward_tree(0)) == [
        OrientedVertex(left=er(0), right=er(1, 0), forward=er(1), path="")
    ]


def test_forward_tree_depth_1():
    assert list(forward_tree(1))[1:] == [
        OrientedVertex(left=er(0), right=er(1), forward=er(1, 2), path="L"),
        OrientedVertex(left=er(1), right=er(1, 0), forward=er(2), path="R"),
    ]


def test_forward_tree_counts():
    for depth in range(6):
        assert sum(1 for _ in forward_tree(depth)) == 2 ** (depth + 1) - 1


def test_forward_tree_children_keep_one_region():
    frames = {f.path: f for f in forward_tree(7)}
    for path, f in frames.items():
        if len(path) == 7:
            continue
        assert frames[path + "L"].left == f.left
        assert frames[path + "L"].right == f.forward
        assert frames[path + "R"].left == f.forward
        assert frames[path + "R"].right == f.right


@pytest.mark.parametrize("prefix", ["", "LR"])
def test_forward_tree_is_walk_stably_sorted_by_level(prefix):
    # with a prefix, walk's shard is the matching part of the whole flow
    by_level = sorted(walk("stern-brocot", 8, prefix), key=lambda item: len(item[0]))
    expected = [
        OrientedVertex(er(ln, ld), er(hn, hd), er(ln + hn, ld + hd), path)
        for path, (ln, ld, hn, hd) in by_level
    ]
    assert [f for f in forward_tree(8) if f.path.startswith(prefix)] == expected


def test_forward_tree_is_walk_stably_sorted_by_level_at_depth_12():
    by_level = sorted(walk("stern-brocot", 12), key=lambda item: len(item[0]))
    expected = [
        OrientedVertex(er(ln, ld), er(hn, hd), er(ln + hn, ld + hd), path)
        for path, (ln, ld, hn, hd) in by_level
    ]
    assert list(forward_tree(12)) == expected


@pytest.mark.parametrize("span", [1, 2, 3])
def test_forward_tree_does_not_depend_on_the_span(monkeypatch, span):
    monkeypatch.setattr("mediant.trees._ROW", 2**span)
    by_level = sorted(walk("stern-brocot", 7), key=lambda item: len(item[0]))
    expected = [
        OrientedVertex(er(ln, ld), er(hn, hd), er(ln + hn, ld + hd), path)
        for path, (ln, ld, hn, hd) in by_level
    ]
    assert list(forward_tree(7)) == expected


def test_forward_tree_validates_before_iteration():
    with pytest.raises(ValueError):
        forward_tree(-1)


def test_farey_label_examples():
    frames = {f.path: f for f in forward_tree(2)}
    assert farey_label(frames[""]) == er(1)
    assert farey_label(frames["L"]) == er(1, 2)
    assert farey_label(frames["RL"]) == er(3, 2) == sb_node("RL").value


def test_vertex_matrix_examples():
    frames = {f.path: f for f in forward_tree(1)}
    assert vertex_matrix(frames[""]) == Mat2.frame(0, 1, 1, 0)
    assert vertex_matrix(frames["L"]) == Mat2.frame(0, 1, 1, 1)
    assert vertex_matrix(frames["R"]) == Mat2.frame(1, 1, 1, 0)


def test_vertex_matrix_sends_base_points_to_labels():
    for f in forward_tree(6):
        m = vertex_matrix(f)
        assert m(er(1, 0)) == f.left
        assert m(er(0)) == f.right
        assert m(er(1)) == f.forward
        assert m.det == -1


def test_conjugate_shadow_examples():
    left, right = generators()
    assert conjugate_shadow(Mat2.frame(0, 1, 1, 0)) == IDENTITY
    assert conjugate_shadow(Mat2.frame(0, 1, 1, 1)) == left
    assert conjugate_shadow(Mat2.frame(1, 1, 1, 0)) == right


def test_conjugate_shadow_rejects_wrong_determinant():
    with pytest.raises(ValueError):
        conjugate_shadow(IDENTITY)


def test_conjugation_is_functorial():
    # stepping the flow multiplies the conjugated frame by the step generator
    left, right = generators()
    frames = {f.path: f for f in forward_tree(8)}
    for path, f in frames.items():
        assert conjugate_shadow(vertex_matrix(f)) == from_path(path)
        if len(path) == 8:
            continue
        shadow = conjugate_shadow(vertex_matrix(f))
        assert conjugate_shadow(vertex_matrix(frames[path + "L"])) == left * shadow
        assert conjugate_shadow(vertex_matrix(frames[path + "R"])) == right * shadow


def test_wrappers_are_their_cores():
    # the sweep checks the cores; the public maps must be exactly the cores' output
    frames = {f.path: f for f in forward_tree(10)}
    flow = zip(walk("stern-brocot", 10), walk("matrix", 10))
    for (path, bounds), (_, entries) in flow:
        v = frames[path]
        m = vertex_matrix(v)
        assert farey_label(v) == ExtendedRational(*_label_core(*bounds)) == v.forward
        assert m == Mat2.frame(*_vertex_core(*bounds))
        assert conjugate_shadow(m) == Mat2(*_conjugate_core(m.a, m.b, m.c, m.d))
        for x in (er(1), er(0), er(1, 0), v.forward):
            assert m(x) == ExtendedRational(*_mobius_core(m.a, m.b, m.c, m.d, x.num, x.den))
            assert Mat2(*entries)(x) == ExtendedRational(*_mobius_core(*entries, x.num, x.den))


def test_verify_depth_0():
    report = verify_topograph_proof(0)
    assert report.frames == 1
    assert report.ok
    assert report.first_failure_path is None


def test_verify_depth_2():
    report = verify_topograph_proof(2)
    assert report.frames == 7
    assert report.ok


def test_verify_depth_8():
    report = verify_topograph_proof(8)
    assert report.frames == 2**9 - 1
    assert report.ok
    assert report.elapsed_s >= 0


def test_verify_parallel_matches_serial():
    serial = verify_topograph_proof(7, jobs=1)
    parallel = verify_topograph_proof(7, jobs=2)
    assert serial.frames == parallel.frames
    assert serial.ok and parallel.ok


def test_verify_validation():
    with pytest.raises(ValueError):
        verify_topograph_proof(-1)
    with pytest.raises(ValueError):
        verify_topograph_proof(2, jobs=0)


@pytest.mark.parametrize("path", ["", "L", "RRL", "LRLRLR"])
def test_frame_is_an_oriented_vertex(path):
    state = next(s for p, s in walk("stern-brocot", len(path)) if p == path)
    lo_num, lo_den, hi_num, hi_den = state
    built = OrientedVertex(
        er(lo_num, lo_den), er(hi_num, hi_den), er(lo_num + hi_num, lo_den + hi_den), path
    )
    frame = next(f for f in forward_tree(len(path)) if f.path == path)
    assert type(frame) is OrientedVertex
    assert frame == built and hash(frame) == hash(built)
    assert str(frame) == str(built) and repr(frame) == repr(built)
    for field in ("left", "right", "forward", "path"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frame, field, getattr(built, field))


def test_report_serialization():
    doc = verify_topograph_proof(3).as_dict()
    assert doc["frames"] == 15
    assert "first_failure_path" not in doc
    for key in ("conjugation_failures", "label_failures", "mobius_failures", "frame_failures"):
        assert doc[key] == 0


def test_verify_reports_injected_fault(monkeypatch):
    # a wrong peak label is caught immediately, starting at the root
    monkeypatch.setattr(
        mediant.topograph, "_label_core", lambda lo_num, lo_den, hi_num, hi_den: (lo_num, lo_den)
    )
    report = verify_topograph_proof(3)
    assert not report.ok
    assert report.label_failures == 15
    assert report.conjugation_failures == 0
    assert report.first_failure_path == ""
    assert report.as_dict()["first_failure_path"] == ""


def test_verify_catches_corrupted_matrix_tree(monkeypatch):
    # the expected side comes from the matrix tree: swapping its children
    # mirrors every path below the root, so every frame but the root fails
    seed, children, value_of = mediant.trees._TREE_RULES["matrix"]
    monkeypatch.setitem(
        mediant.trees._TREE_RULES, "matrix", (seed, lambda m: children(m)[::-1], value_of)
    )
    report = verify_topograph_proof(4)
    assert not report.ok
    assert report.conjugation_failures == report.label_failures == 2**5 - 2
    assert report.mobius_failures == report.frame_failures == 0
    assert report.first_failure_path == "L"


def test_verify_counts_a_matrix_rule_that_leaves_the_monoid(monkeypatch):
    # the sweeps build their matrix nodes unchecked, so a node with
    # determinant 2 is a counted failure with a path, not a raised error
    root, children, value_of = mediant.trees._TREE_RULES["matrix"]

    def corrupted(state):
        (a, b, c, d), right = children(state)
        return (a, b, c, d + 1), right

    monkeypatch.setitem(mediant.trees._TREE_RULES, "matrix", (root, corrupted, value_of))
    theorem = verify_theorem(3)
    assert theorem.cw_failures > 0 and theorem.first_failure_path == "L"
    topograph = verify_topograph_proof(3)
    assert topograph.conjugation_failures > 0 and topograph.first_failure_path == "L"


def test_verify_catches_corrupted_stern_brocot_rule(monkeypatch):
    # both sweeps walk the flow and the matrix tree with walk, one rule each;
    # the matrix side must still catch a corrupted Stern-Brocot rule
    seed, children, value_of = mediant.trees._TREE_RULES["stern-brocot"]
    monkeypatch.setitem(
        mediant.trees._TREE_RULES,
        "stern-brocot",
        (seed, lambda s: children(s)[::-1], value_of),
    )
    report = verify_topograph_proof(4)
    assert not report.ok
    assert report.conjugation_failures == report.label_failures == 2**5 - 2
    assert report.mobius_failures == report.frame_failures == 0
    assert report.first_failure_path == "L"
    theorem = verify_theorem(4)
    assert not theorem.ok
    assert theorem.farey_failures == 2**5 - 2
    assert theorem.cw_failures == 0


@pytest.mark.parametrize(
    "core,corrupted,counter,count,first",
    [
        # no swap: the conjugate keeps the frame's determinant -1, outside the monoid
        ("_conjugate_core", lambda a, b, c, d: (a, b, c, d), "conjugation", 15, ""),
        # columns swapped: determinant +1, so no frame; its image of 1 is unchanged
        ("_vertex_core", lambda ln, ld, hn, hd: (hn, ln, hd, ld), "conjugation", 15, ""),
        # the d*q term dropped: right only where the right bound is 1/0
        ("_mobius_core", lambda a, b, c, d, p, q: (a * p + b * q, c * p), "mobius", 11, "L"),
        # 0/0 cross-multiplies equal to every value: it must still count as a failure
        ("_mobius_core", lambda a, b, c, d, p, q: (0, 0), "mobius", 15, ""),
    ],
)
def test_verify_counts_a_corrupted_core(monkeypatch, core, corrupted, counter, count, first):
    monkeypatch.setattr(mediant.topograph, core, corrupted)
    report = verify_topograph_proof(3).as_dict()
    failures = {key: n for key, n in report.items() if key.endswith("_failures") and n}
    assert failures == {f"{counter}_failures": count}
    assert report["first_failure_path"] == first


def test_verify_counts_a_zero_over_zero_label(monkeypatch):
    # the label feeds the label, Moebius and frame checks; 0/0 matches none of them
    monkeypatch.setattr(mediant.topograph, "_label_core", lambda *bounds: (0, 0))
    report = verify_topograph_proof(3)
    assert report.label_failures == report.mobius_failures == report.frame_failures == 15
    assert report.conjugation_failures == 0


def _scaled(core, k):
    return lambda *state: tuple(k * x for x in core(*state))


@pytest.mark.parametrize(
    "cores,roots,failures",
    [
        # determinant -4: no frame, so the Moebius check fails though 2/2 equals 1/1
        ({"_vertex_core": _scaled(_vertex_core, 2)}, {}, {"conjugation": 15, "mobius": 15}),
        # a doubled matrix tree matches a doubled conjugate, whose determinant is 4
        ({"_conjugate_core": _scaled(_conjugate_core, 2)}, {"matrix": (2, 0, 0, 2)},
         {"conjugation": 15}),
        # a negated matrix tree matches a negated conjugate of determinant 1
        ({"_conjugate_core": _scaled(_conjugate_core, -1)}, {"matrix": (-1, 0, 0, -1)},
         {"conjugation": 15}),
        # bounds 1/0 and 0/1 swapped: every frame has determinant +1
        ({}, {"stern-brocot": (1, 0, 0, 1)},
         {"conjugation": 15, "label": 14, "frame": 15}),
        # forward 2(lo + hi) equals the mediant but is Z-distinct from neither bound.
        # Dropping one Z-distinct half leaves no fault to find: with the mediant and
        # determinant -1 checks holding, forward is t(lo + hi) and both halves equal |t|.
        ({"_label_core": _scaled(_label_core, 2)}, {}, {"frame": 15}),
    ],
)
def test_verify_counts_each_per_frame_clause(monkeypatch, cores, roots, failures):
    for core, corrupted in cores.items():
        monkeypatch.setattr(mediant.topograph, core, corrupted)
    rules = mediant.trees._TREE_RULES
    for kind, root in roots.items():
        monkeypatch.setitem(rules, kind, (root, *rules[kind][1:]))
    report = verify_topograph_proof(3).as_dict()
    counted = {key: n for key, n in report.items() if key.endswith("_failures") and n}
    assert counted == {f"{check}_failures": n for check, n in failures.items()}
    assert report["first_failure_path"] == ""


# The per-frame checks as they read before they were inlined into _checks:
# the flags must not change on any input, 0/0 and negative entries included.
def _unimodular(a, b, c, d, dets):
    return a >= 0 and b >= 0 and c >= 0 and d >= 0 and a * d - b * c in dets


def _frame_ok(lo_num, lo_den, hi_num, hi_den, num, den):
    if lo_num * hi_den - lo_den * hi_num != -1:
        return False
    if not _raw_equal(num, den, lo_num + hi_num, lo_den + hi_den):
        return False
    return abs(lo_num * den - lo_den * num) == 1 and abs(num * hi_den - den * hi_num) == 1


def _oracle_checks(bounds, node):
    t = mediant.topograph
    num, den = t._label_core(*bounds)
    a, b, c, d = t._vertex_core(*bounds)
    framed = _unimodular(a, b, c, d, (1, -1))
    shadow = t._conjugate_core(a, b, c, d)
    return (framed and shadow == node and _unimodular(*shadow, (1,)),
            _raw_equal(num, den, *t._farey_core(*node)),
            framed and _raw_equal(*t._mobius_core(a, b, c, d, 1, 1), num, den),
            _frame_ok(*bounds, num, den))


def test_checks_match_the_formulation_before_inlining_on_every_small_frame():
    # every bounds tuple in -3..3, beside the node its frame conjugates to,
    # that node negated, and the root
    for bounds in product(range(-3, 4), repeat=4):
        lo_num, lo_den, hi_num, hi_den = bounds
        conjugate = (lo_den, lo_num, hi_den, hi_num)
        for node in (conjugate, tuple(-x for x in conjugate), (1, 0, 0, 1)):
            assert mediant.topograph._checks(bounds, node) == _oracle_checks(bounds, node)


small = st.integers(min_value=-3, max_value=3)
quads = st.tuples(small, small, small, small)
# a core may be replaced by a constant, so labels and matrices that no
# frame has (0/0, scaled, negative, either determinant sign) occur too
core_outputs = st.fixed_dictionaries({}, optional={
    "_label_core": st.tuples(small, small),
    "_vertex_core": quads,
    "_conjugate_core": quads,
    "_farey_core": st.tuples(small, small),
    "_mobius_core": st.tuples(small, small),
})


_ROOT_BOUNDS, _ROOT_NODE = (0, 1, 1, 0), (1, 0, 0, 1)


# Each example kills one clause ablation of _checks (tools/mutants.py) at an
# input that random draws rarely reach: a core's constant output equal to the
# drawn node, two cores agreeing on 1/0, or one exact label at the root bounds.
@settings(max_examples=1000, deadline=None)
@given(quads, quads, core_outputs)
@example((-1, 1, 0, 1), _ROOT_NODE, {"_conjugate_core": _ROOT_NODE})  # framed
@example(_ROOT_BOUNDS, (-1, 0, 0, -1), {"_conjugate_core": (-1, 0, 0, -1)})  # e >= 0
@example(_ROOT_BOUNDS, (1, -1, 0, 1), {"_conjugate_core": (1, -1, 0, 1)})  # f >= 0
@example(_ROOT_BOUNDS, (1, 0, -1, 1), {"_conjugate_core": (1, 0, -1, 1)})  # g >= 0
@example(_ROOT_BOUNDS, _ROOT_NODE, {"_mobius_core": (1, 0), "_label_core": (1, 0)})  # x != 0
@example(_ROOT_BOUNDS, _ROOT_NODE, {"_label_core": (1, 2)})  # den == lo_den + hi_den
def test_checks_match_the_formulation_before_inlining(bounds, node, outputs):
    with pytest.MonkeyPatch.context() as patch:
        for core, value in outputs.items():
            patch.setattr(mediant.topograph, core, lambda *_, value=value: value)
        assert mediant.topograph._checks(bounds, node) == _oracle_checks(bounds, node)
