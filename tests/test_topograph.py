import dataclasses

import pytest

import mediant.topograph
import mediant.trees
from mediant.shadows import verify_theorem
from mediant.matrices import IDENTITY, Mat2, _mobius_core, from_path, generators
from mediant.rational import ExtendedRational
from mediant.topograph import (
    OrientedVertex,
    _conjugate_core,
    _frame,
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
    flow = zip(walk("stern-brocot", 10), walk("matrix", 10))
    for (path, bounds), (_, entries) in flow:
        v = _frame(path, bounds)
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
    frame = _frame(path, state)
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
