"""Stern's diatomic sequence, the hyperbinary counting function, and a DP oracle.

Point values come from a binary descent in O(log n) time and O(1) memory, and
the whole sequence streams by Newman's successor; nothing is tabulated.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["SternTable", "fusc", "hyperbinary_count_oracle", "stern"]


def _stern_pair(n: int) -> tuple[int, int]:
    """(s(n), s(n+1)) by binary descent, O(log n), no table."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        if bit == "1":
            a += b
        else:
            b += a
    return a, b


def _newman(count: int) -> Iterator[int]:
    """s(0), ..., s(count - 1) in O(1) memory by Newman's successor
    s(n+2) = (2*floor(s(n)/s(n+1)) + 1)*s(n+1) - s(n)
    (Gibbons, Lester & Bird, "Enumerating the rationals", JFP 16(3), 2006)."""
    a, b = 0, 1
    for _ in range(count):
        yield a
        a, b = b, (2 * (a // b) + 1) * b - a


def stern(n: int) -> int:
    """The diatomic sequence s(n): s(0) = 0, s(1) = 1, s(2n) = s(n),
    s(2n+1) = s(n) + s(n+1)."""
    if n < 0:
        raise ValueError("sequence index must be non-negative")
    return _stern_pair(n)[0]


def fusc(n: int) -> int:
    """The hyperbinary counting function b(n); equals stern(n + 1).

    b(n)/b(n+1) read off the Calkin-Wilf tree breadth-first is every
    positive rational exactly once.
    """
    if n < 0:
        raise ValueError("sequence index must be non-negative")
    return _stern_pair(n + 1)[0]


class SternTable:
    """Stateless: value(n) is stern(n).

    It exists only because perfbench/layers.py reads it by name; ROADMAP
    item 4 (benchmark v2) retires it.
    """

    def value(self, n: int) -> int:
        return stern(n)


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
