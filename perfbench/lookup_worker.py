"""The lookup workload's process: import mediant, warm it up, answer seeded queries.

Run by run.py with mediant's src directory on PYTHONPATH:

    python3 perfbench/lookup_worker.py --setup-only
    python3 perfbench/lookup_worker.py --seed N --seconds S

Prints one JSON object.  Set-up is the import of the package plus a warm-up
pass that brings the Stern table to its final size.  Each query is timed on
its own and scaled to the reference speed by the host probes near its round
(calibrate.py).  Its answer is checked against reference.py after
its round, outside the timed calls.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

from calibrate import HostSpeed
from checks import check_query
from inputs import STERN_HORIZON, lookup_round

PROBE_EVERY_S = 0.5  # host probes between rounds (calibrate.py)


def set_up():
    start = time.perf_counter()
    import mediant
    import mediant.cli  # parse_target

    mediant.stern(STERN_HORIZON - 1)
    return mediant, time.perf_counter() - start


def _plain(q):
    return (q.num, q.den)


def query_functions(m):
    """kind -> callable(argument) -> answer in plain tuples, as the CLI would chain them."""

    def locate(find):
        def run(arg):
            path = find(m.ExtendedRational(*arg))
            return path, m.bfs_index(path)

        return run

    def approx(arg):
        text, max_den = arg
        target = m.cli.parse_target(text)
        return _plain(m.best_approximation(target.num, target.den, max_den))

    def sb_node(path):
        node = m.sb_node(path)
        return _plain(node.lo), _plain(node.hi), _plain(node.value)

    def from_path(path):
        x = m.from_path(path)
        return (x.a, x.b, x.c, x.d)

    return {
        "cw_locate": locate(m.cw_locate),
        "sb_locate": locate(m.sb_locate),
        "approx": approx,
        "fusc": m.fusc,
        "cw_unrank": lambda n: _plain(m.cw_unrank(n)),
        "cw_value": lambda path: _plain(m.cw_value(path)),
        "sb_node": sb_node,
        "from_path": from_path,
        "decompose": lambda arg: m.decompose(m.Mat2(*arg[1])),
    }


def run(seed: int, seconds: float) -> dict:
    mediant, _ = set_up()
    functions = query_functions(mediant)
    clock = time.perf_counter
    host = HostSpeed()
    rounds = []  # (start, query times, answered)
    long_s = 0.0
    failed = wrong = 0
    errors = []
    begin = last_probe = clock()
    while clock() - begin < seconds:
        queries = lookup_round(seed, len(rounds))
        answers, times = [], []
        start = clock()
        for kind, arg, long in queries:
            t0 = clock()
            try:
                answer = functions[kind](arg)
            except Exception as exc:  # a failed operation is counted, not fatal
                answer = exc
            elapsed = clock() - t0
            times.append(elapsed)
            long_s += elapsed if long else 0.0
            answers.append(answer)
        answered = 0
        for (kind, arg, _), answer in zip(queries, answers):
            if isinstance(answer, Exception):
                failed += 1
                problem = f"{kind}: {type(answer).__name__}: {answer}"
            else:
                problem = check_query(kind, arg, answer)
                wrong += problem is not None
            answered += problem is None
            if problem and len(errors) < 5:
                errors.append(problem)
        rounds.append((start, times, answered))
        if clock() - last_probe >= PROBE_EVERY_S:
            host.take()
            last_probe = clock()
    host.take()

    scaled, raw, rates = [], [], []
    for start, times, answered in rounds:
        factor = host.scale(start, sum(times)) / sum(times)
        scaled += [t * factor for t in times]
        raw += times
        rates.append(answered / (factor * sum(times)))
    return {
        "rounds": len(rounds),
        "attempted": len(raw),
        "failed": failed,
        "wrong": wrong,
        "errors": errors,
        "items_per_s": statistics.median(rates),
        "long_share": long_s / sum(raw),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "raw_p50_ms": statistics.median(raw) * 1e3,
        "probe_ms": host.median_ms(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_s": set_up()[1]}))
    else:
        print(json.dumps(run(args.seed, args.seconds)))


if __name__ == "__main__":
    main()
