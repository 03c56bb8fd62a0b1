"""Acceptance gate: ten exact, reproducible criteria.

Each test prints exactly one ACCEPTANCE NN PASS/FAIL line (visible under
pytest -s); every comparison is integer-exact, the only tolerances are the
wall-clock budgets stated inline.
"""

import contextlib
import io
import json
import math
import random
import time

from mediant.cli import main
from mediant.matrices import Mat2, decompose, from_path
from mediant.rational import ExtendedRational
from mediant.stern import fusc, hyperbinary_count_oracle, stern
from mediant.topograph import (
    forward_tree,
    neighbors,
    triples_containing,
    verify_topograph_proof,
    Vertex,
)
from mediant.trees import (
    best_approximation,
    cw_locate,
    cw_unrank,
    cw_value,
    level_iter,
    sb_locate,
    sb_node,
    sb_row,
)
from oracles import brute_best, er


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS {title}")


def test_01_breadth_first_enumeration_literal():
    expected = [
        er(1, 1), er(1, 2), er(2, 1), er(1, 3), er(3, 2),
        er(2, 3), er(3, 1), er(1, 4), er(4, 3), er(3, 5),
    ]
    with criterion(1, "first ten breadth-first rationals, < 1 ms"):
        [cw_unrank(n) for n in range(10)]  # warm up: the timed runs below pay no first-call costs
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            got = [cw_unrank(n) for n in range(10)]
            best = min(best, time.perf_counter() - start)
        assert got == expected
        assert best < 1e-3


def test_02_shadow_verification_depth_12():
    with criterion(2, "verify --depth 12: 8191/8191 on both shadows, < 2 s"):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(["verify", "--depth", "12"])
        elapsed = time.perf_counter() - start
        doc = json.loads(out.getvalue())
        assert code == 0
        assert doc["theorem"]["nodes"] == 8191
        assert doc["theorem"]["cw_failures"] == 0
        assert doc["theorem"]["farey_failures"] == 0
        assert elapsed < 2.0


def test_03_topograph_verification_depth_10():
    with criterion(3, "topograph proof sweep: 2047/2047 frames, < 1 s"):
        start = time.perf_counter()
        report = verify_topograph_proof(10)
        elapsed = time.perf_counter() - start
        assert report.frames == 2047
        assert report.ok
        assert elapsed < 1.0


def test_04_matrix_tree_level_three():
    expected = [
        Mat2(1, 0, 3, 1), Mat2(3, 1, 2, 1), Mat2(2, 1, 3, 2), Mat2(3, 2, 1, 1),
        Mat2(1, 1, 2, 3), Mat2(2, 3, 1, 2), Mat2(1, 2, 1, 3), Mat2(1, 3, 0, 1),
    ]
    with criterion(4, "matrix tree level 3 equals the eight-matrix row"):
        row = [n.value for n in level_iter("matrix", 3) if n.level == 3]
        assert row == expected


def test_05_free_monoid_round_trip():
    with criterion(5, "decompose inverts from_path; depth-12 row distinct, < 5 s"):
        start = time.perf_counter()
        for node in level_iter("matrix", 14):
            assert decompose(node.value) == node.path
        rng = random.Random(5)
        for _ in range(10**4):
            path = "".join(rng.choice("LR") for _ in range(rng.randint(0, 60)))
            assert decompose(from_path(path)) == path
        row = {n.value for n in level_iter("matrix", 12) if n.level == 12}
        assert len(row) == 4096
        assert time.perf_counter() - start < 5.0


def test_06_sequence_identities():
    with criterion(6, "fusc/stern shift, hyperbinary oracle, coprimality, < 5 s"):
        start = time.perf_counter()
        for n in range(10**5 + 1):
            assert fusc(n) == stern(n + 1)
        for n in range(10**4 + 1):
            assert fusc(n) == hyperbinary_count_oracle(n)
        for n in range(10**5 + 1):
            assert math.gcd(fusc(n), fusc(n + 1)) == 1
        assert time.perf_counter() - start < 5.0


def test_07_farey_row_formula():
    with criterion(7, "Stern-Brocot row r is s(n)/s(2^r - n) over odd n, r <= 12"):
        for r in range(1, 13):
            expected = [
                ExtendedRational(stern(n), stern(2**r - n))
                for n in range(1, 2**r, 2)
            ]
            assert sb_row(r - 1) == expected


def test_08_exactly_once_coverage():
    with criterion(8, "locate round-trips for p, q <= 50; no duplicates to depth 15, < 10 s"):
        start = time.perf_counter()
        for p in range(1, 51):
            for q in range(1, 51):
                if math.gcd(p, q) != 1:
                    continue
                value = er(p, q)
                assert cw_value(cw_locate(value)) == value
                assert sb_node(sb_locate(value)).value == value
        cw_seen = [n.value for n in level_iter("calkin-wilf", 15)]
        sb_seen = [n.value for n in level_iter("stern-brocot", 15)]
        assert len(set(cw_seen)) == len(cw_seen) == 2**16 - 1
        assert len(set(sb_seen)) == len(sb_seen) == 2**16 - 1
        assert time.perf_counter() - start < 10.0


def test_09_approximation_oracle():
    with criterion(9, "best_approximation matches denominator scan on 200 targets"):
        rng = random.Random(9)
        for _ in range(200):
            num = rng.randint(1, 10**4)
            den = rng.randint(1, 10**4)
            max_den = rng.randint(1, 500)
            got = best_approximation(num, den, max_den)
            assert got == brute_best(num, den, max_den)


def test_10_two_triples_lemma():
    with criterion(10, "each depth-10 pair has two triples; neighbors symmetric"):
        pairs = set()
        frames = list(forward_tree(10))
        for f in frames:
            pairs.add((f.left, f.forward))
            pairs.add((f.forward, f.right))
            pairs.add((f.left, f.right))
        for x, y in pairs:
            first, second = triples_containing(x, y)
            assert first != second
            for vertex in (first, second):
                assert x in vertex.elements and y in vertex.elements
        for f in frames:
            v = Vertex(f.left, f.forward, f.right)
            for u in neighbors(v):
                assert v in neighbors(u)
