"""Reference computations for checking mediant's outputs.

Nothing here imports mediant: every expected value is derived from first
principles (child rules, explicit 2x2 products, Stern's recurrence, Euler's
totient, fractions.Fraction), so a fault in the package cannot hide by also
appearing in its own reference.  Rationals are (num, den) tuples in lowest
terms; matrices are (a, b, c, d) tuples for (a b; c d).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

GEN_L = (1, 0, 1, 1)
GEN_R = (1, 1, 0, 1)
_BITS = str.maketrans("LR", "01")


def stern_list(count: int) -> list[int]:
    """s(0), ..., s(count - 1) by s(2n) = s(n), s(2n+1) = s(n) + s(n+1)."""
    s = [0, 1][:count]
    for i in range(2, count):
        s.append(s[i >> 1] if i % 2 == 0 else s[i >> 1] + s[(i >> 1) + 1])
    return s


def stern_bitwalk(n: int) -> int:
    """s(n) by walking the bits of n from the least significant end."""
    a, b = 1, 0
    while n:
        if n & 1:
            b += a
        else:
            a += b
        n >>= 1
    return b


def fusc(n: int) -> int:
    """The hyperbinary count b(n) = s(n + 1)."""
    return stern_bitwalk(n + 1)


def bfs_index(path: str) -> int:
    """2^len - 1 plus the path read as a binary number with L = 0, R = 1."""
    return (1 << len(path)) - 1 + int(path.translate(_BITS) or "0", 2)


def cw_walk(path: str) -> tuple[int, int]:
    """Calkin-Wilf value at path: L child a/(a+b), R child (a+b)/b."""
    a, b = 1, 1
    for step in path:
        if step == "L":
            b += a
        elif step == "R":
            a += b
        else:
            raise ValueError(f"bad step {step!r}")
    return a, b


def sb_walk(path: str) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """Stern-Brocot (lo, hi, value) at path: value is the mediant of the bounds."""
    lo, hi = (0, 1), (1, 0)
    for step in path:
        value = (lo[0] + hi[0], lo[1] + hi[1])
        if step == "L":
            hi = value
        elif step == "R":
            lo = value
        else:
            raise ValueError(f"bad step {step!r}")
    return lo, hi, (lo[0] + hi[0], lo[1] + hi[1])


def mat_mul(m: tuple, n: tuple) -> tuple[int, int, int, int]:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def matrix_walk(path: str) -> tuple[int, int, int, int]:
    """G(pk) * ... * G(p1) for path p1..pk, by explicit 2x2 products."""
    m = (1, 0, 0, 1)
    for step in path:
        m = mat_mul(GEN_L if step == "L" else GEN_R, m)
    return m


def bfs_rows(depth: int, root, children):
    """Rows 0..depth of (path, state), each row left to right."""
    row = [("", root)]
    rows = [row]
    for _ in range(depth):
        row = [
            (path + step, child)
            for path, state in row
            for step, child in zip("LR", children(state))
        ]
        rows.append(row)
    return rows


def cw_children(s):
    a, b = s
    return (a, a + b), (a + b, b)


def sb_children(s):
    """(lo, hi) bounds; the node's value is their mediant."""
    lo, hi = s
    value = (lo[0] + hi[0], lo[1] + hi[1])
    return (lo, value), (value, hi)


def matrix_children(m):
    return mat_mul(GEN_L, m), mat_mul(GEN_R, m)


def cw_rows(depth: int):
    return bfs_rows(depth, (1, 1), cw_children)


def sb_rows(depth: int):
    """Rows of (path, (lo, hi)); frames of the forward flow share these bounds."""
    return bfs_rows(depth, ((0, 1), (1, 0)), sb_children)


def matrix_rows(depth: int):
    return bfs_rows(depth, (1, 0, 0, 1), matrix_children)


def frac(q) -> str:
    return f"{q[0]}/{q[1]}"


def mediant_of(lo, hi) -> tuple[int, int]:
    return (lo[0] + hi[0], lo[1] + hi[1])


def totients(n: int) -> list[int]:
    """phi(0..n) by sieve."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def farey_count(max_den: int) -> int:
    return 1 + sum(totients(max_den)[1:])


def parse_target(text: str) -> Fraction:
    """Exact value of "p/q", integer or decimal text."""
    return Fraction(text.strip())


def best_approximation(target: Fraction, max_den: int) -> tuple[int, int]:
    """Closest fraction with denominator <= max_den.

    Fraction.limit_denominator finds a closest one; of the (at most two)
    fractions at that distance, the documented tie rule keeps the smaller
    denominator, then the smaller numerator.
    """
    best = target.limit_denominator(max_den)
    dist = abs(best - target)
    candidates = [c for c in (target - dist, target + dist) if c.denominator <= max_den]
    win = min(candidates, key=lambda c: (c.denominator, c.numerator))
    return win.numerator, win.denominator


def cf_value(quotients: list[int]) -> tuple[int, int]:
    """[q0; q1, ..., qk] as a reduced (num, den)."""
    num, den = 1, 0
    for q in reversed(quotients):
        num, den = q * num + den, num
    return num, den


def reduced(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g
