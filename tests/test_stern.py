import contextlib
import math
import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mediant.cli import main
from mediant.stern import SternTable, _newman, _stern_pair, fusc, hyperbinary_count_oracle, stern
from mediant.trees import cw_unrank

# s(0)..s(16)
FIRST = [0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4, 1]


def test_first_values():
    assert [stern(n) for n in range(len(FIRST))] == FIRST


def test_examples():
    assert stern(0) == 0
    assert stern(1) == 1
    assert stern(5) == 3
    assert fusc(0) == 1
    assert fusc(4) == 3
    assert fusc(8) == 4


def test_negative_rejected():
    with pytest.raises(ValueError):
        stern(-1)
    with pytest.raises(ValueError):
        fusc(-1)
    with pytest.raises(ValueError):
        hyperbinary_count_oracle(-1)


@given(st.integers(min_value=0, max_value=10**9))
def test_recurrence(n):
    assert stern(2 * n) == stern(n)
    assert stern(2 * n + 1) == stern(n) + stern(n + 1)


@given(st.integers(min_value=0, max_value=10**9))
def test_fusc_is_shifted_stern(n):
    assert fusc(n) == stern(n + 1)


@given(st.integers(min_value=0, max_value=10**6))
def test_dp_oracle_matches_fusc(n):
    assert hyperbinary_count_oracle(n) == fusc(n)


def test_dp_oracle_matches_fusc_exhaustive():
    for n in range(2000):
        assert hyperbinary_count_oracle(n) == fusc(n)


@lru_cache(maxsize=None)
def count_by_enumeration(n, power):
    # each power of two used 0, 1 or 2 times; third, much slower route
    if power == 0:
        return 1 if n == 0 else 0
    return sum(
        count_by_enumeration(n - k * power, power // 2)
        for k in range(3)
        if k * power <= n
    )


def test_dp_oracle_against_enumeration():
    for n in range(200):
        power = 1 << max(n.bit_length(), 1)
        assert hyperbinary_count_oracle(n) == count_by_enumeration(n, power)


def test_consecutive_coprimality():
    for n in range(20000):
        assert math.gcd(fusc(n), fusc(n + 1)) == 1


def test_newman_successor_matches_the_descent():
    assert list(_newman(1 << 16)) == [_stern_pair(n)[0] for n in range(1 << 16)]


def test_point_values_and_the_stream_hold_no_table():
    def count():
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(["stern", "--count", "100000"]) == 0

    calls = [lambda: stern(2**20 - 1), lambda: fusc(2**20 + 5), lambda: cw_unrank(2**20), count]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


def test_table_horizon_fallback():
    # the class keeps no table; every index, either side of 2^20, is a descent
    ns = [*range(40), *range(2**20 - 3, 2**20 + 3), *range(2**64 - 3, 2**64 + 3)]
    table = SternTable()
    assert [table.value(n) for n in ns] == [stern(n) for n in ns]


def test_table_validation():
    with pytest.raises(ValueError):
        SternTable().value(-5)


def test_table_concurrent_growth():
    table = SternTable()
    ns = list(range(0, 60000, 7))
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(table.value, ns))
    assert results == [stern(n) for n in ns]
