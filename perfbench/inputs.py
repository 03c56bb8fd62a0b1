"""Seeded inputs for the workloads.  Same seed, same inputs; never imports mediant."""

from __future__ import annotations

import random

from reference import cf_value, matrix_walk

DEPTH = 15  # verify, render and the traced sweeps: 2^16 - 1 nodes
STERN_HORIZON = 1 << 20  # mediant's Stern table stops growing here

# One lookup round: (kind, how many, how many of them carry one long run).
ROUND = (
    ("cw_locate", 8, 1),
    ("sb_locate", 8, 1),
    ("approx", 8, 0),
    ("fusc", 8, 0),
    ("cw_unrank", 8, 0),
    ("cw_value", 6, 1),
    ("sb_node", 6, 1),
    ("from_path", 6, 1),
    ("decompose", 6, 1),
)
ROUND_SIZE = sum(n for _, n, _ in ROUND)
LONG_PER_ROUND = sum(k for _, _, k in ROUND)
LONG_STRATA = 8
MAX_QUOTIENT = 100


def render_commands(seed: int) -> list[tuple[str, list[str]]]:
    """One render round: (name, argv) per command, the same every round."""
    rng = random.Random(seed)
    depth = str(DEPTH)
    stern_count = (1 << 18) - rng.randrange(1024)
    farey_den = 1000 - rng.randrange(16)
    return [
        ("tree-cw-text", ["tree", "--kind", "cw", "--depth", depth]),
        ("tree-sb-json", ["tree", "--kind", "sb", "--depth", depth, "--format", "json"]),
        ("tree-matrix-dot", ["tree", "--kind", "matrix", "--depth", depth, "--format", "dot"]),
        ("topograph-json", ["topograph", "--depth", depth, "--format", "json"]),
        ("stern", ["stern", "--count", str(stern_count)]),
        ("farey", ["farey", "--max-den", str(farey_den)]),
    ]


def gauss_kuzmin(rng: random.Random) -> int:
    """A partial quotient with P(K >= k) = log2(1 + 1/k), capped at MAX_QUOTIENT.

    Inverse-CDF draw, redrawn above the cap so that no short query grows a
    run long enough to be confused with the deliberate long ones.
    """
    while True:
        x = 2 ** (1 - rng.random()) - 1
        if x > 1 / (MAX_QUOTIENT + 1):
            return int(1 / x)


def long_run(rng: random.Random, stratum: int) -> int:
    """A run length in [10^3, 10^4), log-uniform within one of LONG_STRATA strata."""
    return round(10 ** (3 + (stratum % LONG_STRATA + rng.random()) / LONG_STRATA))


def _quotients(rng: random.Random, long_stratum) -> list[int]:
    qs = [gauss_kuzmin(rng) for _ in range(rng.randint(20, 40))]
    if rng.random() < 0.5:
        qs[0] = 0  # values below 1 as well as above
    if long_stratum is not None:
        qs[rng.randrange(1, len(qs))] = long_run(rng, long_stratum)
    return qs


def _path(rng: random.Random, long_stratum) -> str:
    runs = [gauss_kuzmin(rng) for _ in range(rng.randint(10, 20))]
    if long_stratum is not None:
        runs[rng.randrange(len(runs))] = long_run(rng, long_stratum)
    step = rng.choice("LR")
    out = []
    for count in runs:
        out.append(step * count)
        step = "R" if step == "L" else "L"
    return "".join(out)


def _decimal(rng: random.Random) -> str:
    digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(9, 29)))
    return f"{rng.randrange(10)}.{digits}{rng.randrange(1, 10)}"


def lookup_round(seed: int, index: int) -> list[tuple[str, object, bool]]:
    """Round `index` of the lookup workload: (kind, argument, long) per query.

    Every round has the same make-up (ROUND); only the values differ.  The
    long queries' run lengths are stratified across rounds, so that each
    round carries about the same long-run work.
    """
    rng = random.Random(seed * 1_000_003 + index)
    queries = []
    slot = 0
    for kind, count, n_long in ROUND:
        for i in range(count):
            stratum = index + slot if i < n_long else None
            slot += i < n_long
            if kind in ("cw_locate", "sb_locate"):
                arg = cf_value(_quotients(rng, stratum))
            elif kind == "approx":
                if i % 2:
                    num, den = cf_value(_quotients(rng, None))
                    text = f"{num}/{den}"
                else:
                    text = _decimal(rng)
                arg = (text, round(10 ** rng.uniform(2, 12)))
            elif kind in ("fusc", "cw_unrank"):
                if i % 2:
                    arg = rng.randrange(STERN_HORIZON, 1 << 64)
                else:
                    arg = rng.randrange(STERN_HORIZON - 2)
            else:
                path = _path(rng, stratum)
                arg = (path, matrix_walk(path)) if kind == "decompose" else path
            queries.append((kind, arg, stratum is not None))
    rng.shuffle(queries)
    return queries
