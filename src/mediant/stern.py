"""Stern's diatomic sequence, the hyperbinary counting function, and a DP oracle."""

from __future__ import annotations

import threading

__all__ = ["SternTable", "fusc", "hyperbinary_count_oracle", "stern"]


def _stern_pair(n: int) -> tuple[int, int]:
    """(s(n), s(n+1)) by binary descent, O(log n), no table."""
    a, b = 0, 1
    for shift in range(n.bit_length() - 1, -1, -1):
        if (n >> shift) & 1:
            a, b = a + b, b
        else:
            a, b = a, a + b
    return a, b


_HORIZON = 1 << 20


class SternTable:
    """Dense memo of the diatomic sequence.

    s(0) = 0, s(1) = 1, s(2n) = s(n), s(2n+1) = s(n) + s(n+1).  The table
    grows on demand up to _HORIZON; larger indices fall back to the
    logarithmic pair descent and are not stored.  Growth is lock-guarded so
    the table may be shared between threads.
    """

    def __init__(self):
        self._values = [0, 1]
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def value(self, n: int) -> int:
        if n < 0:
            raise ValueError("sequence index must be non-negative")
        if n >= _HORIZON:
            return _stern_pair(n)[0]
        if n >= len(self._values):
            self._grow(n)
        return self._values[n]

    def _grow(self, n: int) -> None:
        with self._lock:
            values = self._values
            for i in range(len(values), n + 1):
                half = values[i >> 1]
                values.append(half if i & 1 == 0 else half + values[(i >> 1) + 1])


_TABLE = SternTable()


def stern(n: int) -> int:
    """The diatomic sequence s(n)."""
    return _TABLE.value(n)


def fusc(n: int) -> int:
    """The hyperbinary counting function b(n); equals stern(n + 1).

    b(n)/b(n+1) read off the Calkin-Wilf tree breadth-first is every
    positive rational exactly once.
    """
    if n < 0:
        raise ValueError("sequence index must be non-negative")
    return _TABLE.value(n + 1)


def hyperbinary_count_oracle(n: int) -> int:
    """Count sums of powers of two equal to n, each power used at most twice.

    Digit DP over the binary expansion of n with carry states {0, 1}; shares
    nothing with the diatomic recurrence, so it serves as an independent
    cross-check of fusc.
    """
    if n < 0:
        raise ValueError("argument must be non-negative")
    ways_c0, ways_c1 = 1, 0  # ways to settle bits below `shift` leaving carry 0 / 1
    for shift in range(n.bit_length()):
        if (n >> shift) & 1:
            ways_c0, ways_c1 = ways_c0 + ways_c1, ways_c1
        else:
            ways_c0, ways_c1 = ways_c0, ways_c0 + ways_c1
    return ways_c0
