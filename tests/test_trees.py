import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediant.matrices import Mat2, decompose, from_path
from mediant.rational import ExtendedRational, is_z_distinct, mediant
from mediant.stern import fusc
from mediant.topograph import OrientedVertex, forward_tree
from mediant.trees import (
    MAX_LOCATE_STEPS,
    _ROW,
    _breadth_first,
    _level_paths,
    _rows,
    _start,
    best_approximation,
    bfs_index,
    cw_locate,
    cw_unrank,
    cw_value,
    index_to_path,
    level_iter,
    sb_locate,
    sb_node,
    sb_row,
    walk,
)
from oracles import _count_rule_calls, brute_best, er


# locate paths are as long as the continued-fraction quotient sum, so keep
# the random numerators small; big-integer coverage uses Fibonacci ratios
# whose quotients are all 1
paths = st.text(alphabet="LR", max_size=25)
positive = st.builds(
    ExtendedRational,
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=10**4),
)


def test_cw_value_examples():
    assert cw_value("") == er(1, 1)
    assert cw_value("L") == er(1, 2)
    assert cw_value("R") == er(2, 1)
    assert cw_value("LLR") == er(4, 3)


def test_cw_unrank_examples():
    assert cw_unrank(0) == er(1, 1)
    assert cw_unrank(9) == er(3, 5)
    assert cw_unrank(4) == er(3, 2)
    with pytest.raises(ValueError):
        cw_unrank(-1)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_cw_unrank_is_the_fusc_ratio(n):
    assert cw_unrank(n) == er(fusc(n), fusc(n + 1))


def test_bfs_rank_agreement():
    # the level order, grown by the child rule, reads off as fusc(n)/fusc(n+1):
    # the n-th node is exactly cw_unrank(n)
    for n, node in enumerate(level_iter("calkin-wilf", 12)):
        assert node.value == cw_unrank(n)
    assert n == 2**13 - 2


def test_level_paths_are_the_levels_bfs_indices():
    for k in range(11):
        paths = [index_to_path(i) for i in range(2**k - 1, 2 ** (k + 1) - 1)]
        assert list(_level_paths(k)) == paths


def test_bfs_index_round_trip():
    assert bfs_index("") == 0
    assert bfs_index("LLR") == 8
    for n in range(2**12):
        assert bfs_index(index_to_path(n)) == n
    with pytest.raises(ValueError):
        index_to_path(-1)
    # a path from outside is checked: unchecked, "L0R" would parse as "LLR"
    with pytest.raises(ValueError):
        bfs_index("L0R")
    with pytest.raises(TypeError):
        bfs_index(["L", "R"])


@given(paths)
def test_bfs_index_inverts_paths(p):
    assert index_to_path(bfs_index(p)) == p


def test_cw_locate_examples():
    assert cw_locate(er(1, 1)) == ""
    assert cw_locate(er(4, 3)) == "LLR"


def test_cw_locate_47_13_against_bfs():
    target = er(47, 13)
    path = cw_locate(target)
    assert len(path) == 8
    assert cw_value(path) == target
    # brute-force BFS finds the same (unique) node
    hits = [
        "".join(w)
        for n in range(9)
        for w in product("LR", repeat=n)
        if cw_value("".join(w)) == target
    ]
    assert hits == [path]


def cf_quotient_sum(num, den):
    total = 0
    while den:
        q, r = divmod(num, den)
        total += q
        num, den = den, r
    return total


@given(positive)
def test_cw_path_length_is_cf_sum_minus_one(q):
    assert len(cw_locate(q)) == cf_quotient_sum(q.num, q.den) - 1


@pytest.mark.parametrize("bad", ["0/1", "-1/2", "1/0"])
def test_locate_rejects_nonpositive(bad):
    value = ExtendedRational.parse(bad)
    with pytest.raises(ValueError):
        cw_locate(value)
    with pytest.raises(ValueError):
        sb_locate(value)


def test_sb_node_examples():
    root = sb_node("")
    assert (root.lo, root.hi, root.value) == (er(0, 1), er(1, 0), er(1, 1))
    assert sb_node("L").value == er(1, 2)
    assert sb_node("R").value == er(2, 1)
    assert sb_node("RL").value == er(3, 2)


@given(paths)
def test_sb_node_invariants(p):
    node = sb_node(p)
    assert node.lo < node.value < node.hi
    assert node.value == mediant(node.lo, node.hi)
    assert is_z_distinct(node.lo, node.hi)
    assert is_z_distinct(node.lo, node.value)
    assert is_z_distinct(node.value, node.hi)


def test_sb_row_examples():
    assert sb_row(0) == [er(1, 1)]
    assert sb_row(1) == [er(1, 2), er(2, 1)]
    assert sb_row(3) == [
        er(1, 4), er(2, 5), er(3, 5), er(3, 4),
        er(4, 3), er(5, 3), er(5, 2), er(4, 1),
    ]
    with pytest.raises(ValueError):
        sb_row(-1)


def test_row_agreement_with_descent():
    # the literal row construction and the bounds descent must agree
    for r in range(13):
        by_descent = [sb_node("".join(w)).value for w in product("LR", repeat=r)]
        assert sb_row(r) == by_descent


def test_rows_strictly_increasing():
    for r in range(12):
        row = sb_row(r)
        assert all(a < b for a, b in zip(row, row[1:]))


def test_in_order_traversal_sorted():
    def in_order(path, depth):
        if len(path) < depth:
            yield from in_order(path + "L", depth)
        yield sb_node(path).value
        if len(path) < depth:
            yield from in_order(path + "R", depth)

    values = list(in_order("", 8))
    assert all(a < b for a, b in zip(values, values[1:]))


def test_brocot_sequence_neighbors_z_distinct():
    values = []
    for r in range(9):
        values.extend(sb_row(r))
        brocot = [er(0, 1)] + sorted(values) + [er(1, 0)]
        assert all(is_z_distinct(a, b) for a, b in zip(brocot, brocot[1:]))


def test_sb_locate_examples():
    assert sb_locate(er(1, 1)) == ""
    assert sb_locate(er(2, 5)) == "LLR"
    assert sb_node(sb_locate(er(355, 113))).value == er(355, 113)


@given(positive)
def test_locate_round_trips(q):
    assert cw_value(cw_locate(q)) == q
    assert sb_node(sb_locate(q)).value == q


def test_locate_small_values_round_trip():
    for p in range(1, 26):
        for q in range(1, 26):
            if math.gcd(p, q) != 1:
                continue
            v = er(p, q)
            assert cw_value(cw_locate(v)) == v
            assert sb_node(sb_locate(v)).value == v


def test_locate_big_integers():
    a, b = 1, 1
    for _ in range(200):
        a, b = a + b, a
    v = er(a, b)
    assert a > 2**130
    path = cw_locate(v)
    assert len(path) == 200
    assert cw_value(path) == v
    assert sb_node(sb_locate(v)).value == v


def cf_value(quotients):
    """The rational [q0; q1, ..., qk] with the continued-fraction recurrence."""
    h, h1, k, k1 = 1, 0, 0, 1
    for q in quotients:
        h, h1, k, k1 = q * h + h1, h, q * k + k1, k
    return er(h, k)


# 30-40 quotients in 1..1000: values reach about 10^100, paths stay under
# 4 * 10^4 steps (one step per unit of each quotient).
huge_values = st.lists(st.integers(1, 1000), min_size=30, max_size=40).map(cf_value)


@settings(max_examples=25, deadline=None)
@given(huge_values)
def test_locate_round_trips_at_100_digit_scale(q):
    cw_path, sb_path = cw_locate(q), sb_locate(q)
    assert len(cw_path) < 4 * 10**4 and len(sb_path) < 4 * 10**4
    assert cw_value(cw_path) == q
    assert sb_node(sb_path).value == q
    assert index_to_path(bfs_index(cw_path)) == cw_path
    assert index_to_path(bfs_index(sb_path)) == sb_path


@settings(max_examples=50, deadline=None)
@given(huge_values, st.data())
def test_best_approximation_matches_limit_denominator_at_100_digit_scale(q, data):
    max_den = data.draw(st.integers(1, q.den))
    target = Fraction(q.num, q.den)
    best = best_approximation(q.num, q.den, max_den)
    ours = Fraction(best.num, best.den)
    expected = target.limit_denominator(max_den)
    assert best.den <= max_den
    assert abs(ours - target) == abs(expected - target)
    # they may differ only on a tie, where target is midway between the
    # two bracketing candidates and the tie-breaking rules differ
    assert ours == expected or ours + expected == 2 * target


def test_no_duplicate_values_to_depth_10():
    for kind in ("calkin-wilf", "stern-brocot"):
        values = [node.value for node in level_iter(kind, 10)]
        assert len(set(values)) == len(values)


def test_best_approximation_examples():
    assert best_approximation(1, 2, 10) == er(1, 2)
    assert best_approximation(2, 4, 10) == er(1, 2)
    assert best_approximation(314159, 100000, 10) == er(22, 7)
    # closest denominator <= 112 value to 355/113 (1/11978 away)
    assert best_approximation(355, 113, 112) == er(333, 106)


def test_best_approximation_validation():
    with pytest.raises(ValueError):
        best_approximation(1, 2, 0)
    with pytest.raises(ValueError):
        best_approximation(0, 1, 10)
    with pytest.raises(ValueError):
        best_approximation(-3, 2, 10)
    with pytest.raises(ValueError):
        best_approximation(1, 0, 10)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=120),
)
def test_best_approximation_matches_brute_force(num, den, max_den):
    assert best_approximation(num, den, max_den) == brute_best(num, den, max_den)


def test_best_approximation_tie_breaking():
    # 1/2 is exactly between 0/1 and 1/1; smaller numerator wins
    assert best_approximation(1, 2, 1) == er(0, 1)
    assert best_approximation(3, 2, 1) == er(1, 1)
    # 5/12 is exactly between 1/3 and 1/2; the smaller denominator wins
    assert best_approximation(5, 12, 3) == er(1, 2)


def test_level_iter_calkin_wilf():
    nodes = list(level_iter("calkin-wilf", 2))
    assert [str(n.value) for n in nodes] == ["1/1", "1/2", "2/1", "1/3", "3/2", "2/3", "3/1"]


def test_level_iter_stern_brocot():
    nodes = list(level_iter("stern-brocot", 2))
    assert [str(n.value) for n in nodes] == ["1/1", "1/2", "2/1", "1/3", "2/3", "3/2", "3/1"]


def test_level_iter_matrix():
    nodes = list(level_iter("matrix", 1))
    assert [n.value for n in nodes] == [Mat2(1, 0, 0, 1), Mat2(1, 0, 1, 1), Mat2(1, 1, 0, 1)]


def test_level_iter_node_fields():
    for node in level_iter("calkin-wilf", 6):
        assert node.level == len(node.path)
        assert bfs_index(node.path) == (1 << node.level) - 1 + node.offset


def test_level_iter_validates_before_iteration():
    with pytest.raises(ValueError):
        level_iter("bird", 2)
    with pytest.raises(ValueError):
        level_iter("calkin-wilf", -1)


def test_walk_validates_before_iteration():
    # walk keeps its prefix: the sweeps shard the tree through it
    for kind, depth, prefix in (("bird", 2, ""), ("matrix", -1, ""),
                                ("matrix", 2, "X"), ("calkin-wilf", 2, "LLL")):
        with pytest.raises(ValueError):
            walk(kind, depth, prefix)


def test_level_iter_count():
    assert sum(1 for _ in level_iter("stern-brocot", 9)) == 2**10 - 1


def _bfs_index_bit_loop(path):
    offset = 0
    for step in path:
        offset = offset * 2 + (step == "R")
    return (1 << len(path)) - 1 + offset


def test_bfs_index_matches_bit_loop():
    for level in range(11):
        for word in product("LR", repeat=level):
            path = "".join(word)
            n = _bfs_index_bit_loop(path)
            assert bfs_index(path) == n
            assert index_to_path(n) == path
    path = "".join(random.Random(5).choice("LR") for _ in range(10**5))
    n = _bfs_index_bit_loop(path)
    assert bfs_index(path) == n
    assert index_to_path(n) == path


def test_locate_refuses_paths_over_the_step_cap():
    assert MAX_LOCATE_STEPS == 10**7  # the cap the README states
    # n/1 sits at R^(n-1) in both trees
    at_cap = er(MAX_LOCATE_STEPS + 1)
    assert cw_locate(at_cap) == sb_locate(at_cap) == "R" * MAX_LOCATE_STEPS
    # and (1 0; n 1) is L^n in the matrix tree
    over_cap = [
        (locate, value)
        for value in (er(MAX_LOCATE_STEPS + 2), er(10**20), er(1, 10**20))
        for locate in (cw_locate, sb_locate)
    ]
    over_cap.append((decompose, Mat2(1, 0, 10**20, 1)))
    for spell, value in over_cap:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"path of \d+ steps"):
            spell(value)
        assert time.perf_counter() - start < 1.0


KINDS = ["calkin-wilf", "stern-brocot", "matrix"]


@pytest.mark.parametrize("kind", KINDS)
def test_walk_is_depth_first_preorder(kind):
    assert [path for path, _ in walk(kind, 2)] == ["", "L", "LL", "LR", "R", "RL", "RR"]
    assert [path for path, _ in walk(kind, 2, "R")] == ["R", "RL", "RR"]


@pytest.mark.parametrize("width", [1, 2, 4, 128, _ROW])
@pytest.mark.parametrize("prefix", ["", "L", "RL"])
def test_rows_partition_every_path_under_the_prefix(width, prefix):
    # node i of a row of 2^j states sits at path + the j-step word of rank i
    for depth in range(len(prefix), 10):
        roots, rules = zip(*(_start(kind, depth, prefix) for kind in KINDS))
        pairs = []
        for path, rows in _rows(roots, rules, depth, prefix, width):
            assert len(rows) == len(KINDS) and 1 <= len(rows[0]) <= width
            steps = len(rows[0]).bit_length() - 1
            assert [len(row) for row in rows] == [2**steps] * len(KINDS)
            words = ["".join(word) for word in product("LR", repeat=steps)]
            pairs += [(path + word, states) for word, states in zip(words, zip(*rows))]
        every = [prefix + "".join(word)
                 for n in range(depth - len(prefix) + 1) for word in product("LR", repeat=n)]
        assert Counter(path for path, _ in pairs) == Counter(every), (width, depth)
        walked = {kind: dict(walk(kind, depth, prefix)) for kind in KINDS}
        for path, states in pairs:
            assert states == tuple(walked[kind][path] for kind in KINDS), path
        if width == 1:
            # depth-first preorder with L first is the sorted order of the paths
            assert [path for path, _ in pairs] == sorted(every)
            for k, kind in enumerate(KINDS):
                assert [(path, states[k]) for path, states in pairs] == list(
                    walk(kind, depth, prefix)
                )


def _direct_state(kind, path):
    """The raw int layout walk documents, built by a route that shares no rule."""
    if kind == "calkin-wilf":
        value = cw_value(path)
        return (value.num, value.den)
    if kind == "stern-brocot":
        node = sb_node(path)
        return (node.lo.num, node.lo.den, node.hi.num, node.hi.den)
    m = from_path(path)
    return (m.a, m.b, m.c, m.d)


def test_walk_states_match_the_direct_constructions():
    for kind in KINDS:
        for prefix in ("", "RLR"):
            for path, state in walk(kind, 7, prefix):
                assert path.startswith(prefix)
                assert state == _direct_state(kind, path)


# The level-order products: level_iter of each tree kind, and the flow's
# frames, forward_tree, which are the Stern-Brocot states
PRODUCTS = [*KINDS, "forward_tree"]


def _level_order(product, depth):
    """The product to `depth` as (path, value) pairs, in its own order."""
    if product == "forward_tree":
        return [(frame.path, frame) for frame in forward_tree(depth)]
    return [(node.path, node.value) for node in level_iter(product, depth)]


def _node_value(product, path, state):
    if product == "forward_tree":
        ln, ld, hn, hd = state
        return OrientedVertex(er(ln, ld), er(hn, hd), er(ln + hn, ld + hd), path)
    if product == "calkin-wilf":
        return ExtendedRational(*state)
    if product == "stern-brocot":
        lo_num, lo_den, hi_num, hi_den = state
        return ExtendedRational(lo_num + hi_num, lo_den + hi_den)
    return Mat2(*state)


def _walk_by_level(product, depth, prefix=""):
    """walk's states stably sorted by level, as the product's (path, value) pairs."""
    kind = "stern-brocot" if product == "forward_tree" else product
    by_level = sorted(walk(kind, depth, prefix), key=lambda item: len(item[0]))
    return [(path, _node_value(product, path, state)) for path, state in by_level]


@pytest.mark.parametrize("product", PRODUCTS)
@pytest.mark.parametrize("prefix", ["", "LR"])
def test_level_iter_is_walk_stably_sorted_by_level(product, prefix):
    # with a prefix, walk's shard is the matching part of the whole level order
    shard = [item for item in _level_order(product, 8) if item[0].startswith(prefix)]
    assert shard == _walk_by_level(product, 8, prefix)


@pytest.mark.parametrize("product", PRODUCTS)
def test_level_iter_is_walk_stably_sorted_by_level_at_depth_12(product):
    # levels 9 to 12 are grown in chunks of 2^8 nodes below nodes of levels 1 to 4
    assert _level_order(product, 12) == _walk_by_level(product, 12)


@pytest.mark.parametrize("span", [1, 2, 3])
@pytest.mark.parametrize("product", PRODUCTS)
def test_level_iter_does_not_depend_on_the_span(monkeypatch, span, product):
    # at rows of 2 to 8 states, levels `span` + 1 to 7 come in rows that
    # _rows split off, as at the default 256 only levels 9 and up do
    monkeypatch.setattr("mediant.trees._ROW", 2**span)
    assert _level_order(product, 7) == _walk_by_level(product, 7)


@pytest.mark.parametrize("row", [1, 2, 4, 8, _ROW])
@pytest.mark.parametrize("kind", KINDS)
def test_level_order_chunks_are_rows_of_at_most_row_states(monkeypatch, row, kind):
    # a level of fewer than _ROW states is one chunk; from level
    # _ROW.bit_length() - 1 on, every chunk is one full row of _ROW states,
    # to twice that depth; at _ROW = 1 every chunk is one state.  A chunk is
    # (paths, states), and level L's paths, joined, are those of BFS indices
    # 2^L - 1 .. 2^(L+1) - 2
    monkeypatch.setattr("mediant.trees._ROW", row)
    height = row.bit_length() - 1
    for level, chunks in enumerate(_breadth_first(kind, 2 * height + 1)):
        chunk = row if level >= height else 2**level
        chunks = [(list(paths), states) for paths, states in chunks]
        sizes = [(len(paths), len(states)) for paths, states in chunks]
        assert sizes == [(chunk, chunk)] * (2**level // chunk), level
        paths = [path for paths, _ in chunks for path in paths]
        assert paths == list(map(index_to_path, range(2**level - 1, 2 ** (level + 1) - 1)))


@pytest.mark.parametrize("row", [8, _ROW])
@pytest.mark.parametrize("kind", KINDS)
def test_level_iter_grows_each_level_once_from_the_root(monkeypatch, row, kind):
    # level L costs one rule call per internal node of the tree of depth L, so
    # levels 0..12 cost the sum of 2^L - 1: 2^13 - 12 - 2 calls; at rows of 8
    # states, levels 4 to 12 come in rows that _rows split off
    monkeypatch.setattr("mediant.trees._ROW", row)
    calls = _count_rule_calls(monkeypatch)
    assert sum(1 for _ in level_iter(kind, 12)) == 2**13 - 1
    assert calls == {kind: 2**13 - 12 - 2}


@pytest.mark.parametrize("kind", KINDS)
def test_each_level_runs_from_all_left_steps_to_all_right_steps(kind):
    # every level starts at L^level = (1 0; level 1) and ends at R^level
    nodes = list(level_iter(kind, 12))
    for level in range(13):
        first, last = nodes[2**level - 1], nodes[2 ** (level + 1) - 2]
        assert (first.path, last.path) == ("L" * level, "R" * level)
        for node, matrix in ((first, Mat2(1, 0, level, 1)), (last, Mat2(1, level, 0, 1))):
            m = from_path(node.path)
            assert m == matrix
            # the values are the matrix's transpose and Farey shadows
            assert node.value == {
                "calkin-wilf": ExtendedRational(m.a + m.b, m.c + m.d),
                "stern-brocot": ExtendedRational(m.b + m.d, m.a + m.c),
                "matrix": m,
            }[kind]
